"""Shared low-level utilities: RNG handling, validation, logging.

These helpers are deliberately tiny and dependency-free so that every other
subpackage (graph substrate, MapReduce engine, core algorithms, experiment
harness) can rely on them without import cycles.
"""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import (
    check_positive,
    check_probability,
    check_node_index,
    require,
)

__all__ = [
    "as_rng",
    "spawn_rngs",
    "check_positive",
    "check_probability",
    "check_node_index",
    "require",
]
