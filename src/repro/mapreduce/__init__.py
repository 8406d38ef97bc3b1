"""MR(M_G, M_L) accounting: the model, charged rounds, their cost, and the suite's worker pool."""

from repro.mapreduce.pool import SupervisedPool, WorkerLostError, fork_available
from repro.mapreduce.cost import DEFAULT_COST_MODEL, CostModel
from repro.mapreduce.engine import MREngine
from repro.mapreduce.metrics import MRMetrics
from repro.mapreduce.model import MRConstraintViolation, MRModel, rounds_for_primitive

__all__ = [
    "fork_available",
    "SupervisedPool",
    "WorkerLostError",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "MREngine",
    "MRMetrics",
    "MRConstraintViolation",
    "MRModel",
    "rounds_for_primitive",
]
