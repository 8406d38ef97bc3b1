"""MR(M_G, M_L) MapReduce simulation substrate (model, engine, backends, structured rounds)."""

from repro.mapreduce.backends import (
    ArrayPairs,
    ExecutionBackend,
    SerialBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
)
from repro.mapreduce.pool import SupervisedPool, WorkerLostError, fork_available
from repro.mapreduce.cost import DEFAULT_COST_MODEL, CostModel
from repro.mapreduce.engine import MREngine
from repro.mapreduce.metrics import MRMetrics
from repro.mapreduce.model import MRConstraintViolation, MRModel, rounds_for_primitive
from repro.mapreduce.structured import (
    StructuredOutcome,
    StructuredReducer,
    available_structured_reducers,
    get_structured_reducer,
    register_structured_reducer,
)

__all__ = [
    "StructuredOutcome",
    "StructuredReducer",
    "available_structured_reducers",
    "get_structured_reducer",
    "register_structured_reducer",
    "ArrayPairs",
    "ExecutionBackend",
    "SerialBackend",
    "VectorizedBackend",
    "available_backends",
    "fork_available",
    "get_backend",
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
