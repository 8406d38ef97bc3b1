"""Pluggable execution backends for the MR simulation engine.

:class:`~repro.mapreduce.engine.MREngine` delegates the physical execution of
a structured round — shuffle (grouping an :class:`ArrayPairs` batch by key)
and reduce (a :class:`~repro.mapreduce.structured.StructuredReducer`) — to an
:class:`ExecutionBackend`.  Two backends ship with the library, and both run
the round in the calling process:

``serial``
    The reference implementation: flattens the batch to per-pair Python
    tuples, groups them with a dict and calls the reducer's
    :meth:`~repro.mapreduce.structured.StructuredReducer.reference` once per
    key (the *tuple path*).  Zero dependencies, easiest to debug, and the
    semantic baseline the other backend is tested against.

``vectorized``
    Groups with one stable argsort over the key array and evaluates the
    reducer as ``np.<ufunc>.reduceat``-style segment reductions — zero
    per-pair and zero per-key Python calls.  Key arrays that cannot be
    argsort-grouped (object dtype, NaN floats) take the tuple path.  Best
    choice for large workloads.

Every backend implements the same contract and is *bit-compatible* with the
serial reference: identical output arrays (same order — groups are emitted in
first-occurrence order of their key, exactly like dict insertion order) and
identical :class:`~repro.mapreduce.metrics.MRMetrics`.  The cross-backend
equivalence suites in ``tests/mapreduce`` enforce this.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (structured imports ArrayPairs)
    from repro.mapreduce.structured import StructuredOutcome, StructuredReducer

Pair = Tuple[Hashable, object]

__all__ = [
    "ArrayPairs",
    "ExecutionBackend",
    "SerialBackend",
    "VectorizedBackend",
    "get_backend",
    "available_backends",
]


class ArrayPairs:
    """Unflattened batch of key-value pairs: one keys array, one values array.

    The vectorized backend consumes this representation natively
    (the keys never become per-pair Python tuples); the serial reference
    flattens it via :meth:`to_pairs`.  ``keys`` must be a one-dimensional
    NumPy array; ``values`` must be a NumPy array (any dtype, including
    ``object``) whose first dimension matches ``keys``.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys = np.asarray(keys)
        values = np.asarray(values)
        if keys.ndim != 1:
            raise ValueError(f"keys must be one-dimensional, got shape {keys.shape}")
        if len(values) != len(keys):
            raise ValueError(
                f"keys and values must have the same length ({len(keys)} != {len(values)})"
            )
        self.keys = keys
        self.values = values

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def to_pairs(self) -> List[Pair]:
        """Flatten into the per-pair tuple representation (Python scalars)."""
        return list(zip(self.keys.tolist(), self.values.tolist()))


class ExecutionBackend(ABC):
    """Strategy interface executing the shuffle+reduce phase of an MR round.

    Implementations must be *bit-compatible* with :class:`SerialBackend`:
    given the same mapped :class:`ArrayPairs` batch and structured reducer
    they must return the same
    :class:`~repro.mapreduce.structured.StructuredOutcome` (same output
    arrays in the same order, same counters).  Groups are reduced in
    first-occurrence order of their key and each reducer sees its values in
    arrival order.  Custom backends override :meth:`shuffle_reduce_structured`.
    """

    name: str = "abstract"

    @abstractmethod
    def shuffle_reduce_structured(
        self, mapped: "ArrayPairs", reducer: "StructuredReducer"
    ) -> "StructuredOutcome":
        """Group an :class:`ArrayPairs` batch by key and apply ``reducer``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class SerialBackend(ExecutionBackend):
    """The tuple path: per-pair tuples, dict shuffle, per-key reference calls.

    The reference semantics every other backend is pinned against, and the
    path every backend takes for keys an argsort cannot group (object dtype,
    NaN floats).
    """

    name = "serial"

    def shuffle_reduce_structured(
        self, mapped: "ArrayPairs", reducer: "StructuredReducer"
    ) -> "StructuredOutcome":
        from repro.mapreduce import structured

        return structured.execute_reference(mapped, reducer)


class VectorizedBackend(ExecutionBackend):
    """One stable argsort over the key array + pure segment reductions.

    Zero per-key Python calls — the reducer is evaluated with
    ``np.<ufunc>.reduceat``-style passes over the whole sorted value array.
    Key arrays an argsort cannot group (object dtype, NaN floats) take the
    serial tuple path, so the backend is safe as a drop-in default.
    """

    name = "vectorized"

    def shuffle_reduce_structured(
        self, mapped: "ArrayPairs", reducer: "StructuredReducer"
    ) -> "StructuredOutcome":
        from repro.mapreduce import structured

        return structured.execute_segments(mapped, reducer)


_BACKENDS: Dict[str, Callable[[], ExecutionBackend]] = {
    "serial": SerialBackend,
    "vectorized": VectorizedBackend,
}


def available_backends() -> List[str]:
    """Names accepted by :func:`get_backend` (and ``MREngine(backend=...)``)."""
    return sorted(_BACKENDS)


def get_backend(spec: Union[str, ExecutionBackend, None]) -> ExecutionBackend:
    """Resolve a backend specification to an :class:`ExecutionBackend`.

    ``spec`` may be a backend instance (returned as-is), a name from
    :func:`available_backends`, or ``None`` (the serial default).
    """
    if spec is None:
        spec = "serial"
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        factory = _BACKENDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; available: {available_backends()}"
        ) from None
    return factory()
