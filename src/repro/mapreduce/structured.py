"""Structured MR rounds: array-native reducers executed as segment reductions.

A *structured round* pairs an unflattened
:class:`~repro.mapreduce.backends.ArrayPairs` batch with a declarative
:class:`StructuredReducer` drawn from a registry (``min``, ``max``, ``sum``,
``count``, ``first``, ``argmin``, ``bitwise_or``, or a custom registration)
that every backend knows how to execute — never one Python callable per key
on the fast path, which is exactly the per-pair / per-key object cost the
paper's linear-communication algorithms are supposed to avoid:

``serial``
    Flattens the batch to per-pair Python tuples and runs the reducer's
    :meth:`~StructuredReducer.reference` callable through a dict shuffle —
    the *tuple path* (:func:`execute_reference`), kept as the
    bit-compatibility reference (and as the slow side of the
    structured-vs-tuple benchmark gates).

``vectorized``
    Groups with one stable ``argsort`` over the key array and evaluates the
    reducer with ``np.<ufunc>.reduceat``-style *segment reductions*
    (:meth:`~StructuredReducer.segment_reduce`) — zero per-key Python calls.

Both produce bit-identical :class:`StructuredOutcome`\\ s — same output
arrays in the same (first-occurrence) order, same counters — so the metered
``MRMetrics`` never depend on the execution strategy.  (One carve-out: the
``sum`` reducer requires group sums to fit the value dtype — integer
overflow wraps on the segment path but not in exact Python arithmetic, so
overflowing workloads are outside the contract.)  Key arrays an argsort
cannot group (object dtype, NaN floats) run the tuple path on every backend.
Drivers build each round's ``ArrayPairs`` with whole-array operations (e.g.
frontier claim expansion is one ``np.repeat``/gather over the CSR arrays,
reusing the :mod:`repro.graph.kernels` primitives).

A reducer emits one row per group (plus an optional emit mask); rounds whose
reduce step would emit many rows per group — the sample sort and prefix sums
of Fact 1 — are not executed but charged analytically
(:func:`~repro.mapreduce.model.rounds_for_primitive`,
:meth:`~repro.mapreduce.engine.MREngine.charge_rounds`).

Registering a custom segment reducer::

    class MyReducer(StructuredReducer):
        name = "my-reducer"
        def segment_reduce(self, sorted_values, starts, ends): ...
        def reference(self, key, values): ...

    register_structured_reducer(MyReducer())
    engine.run_structured_round(batch, "my-reducer")
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.mapreduce.backends import ArrayPairs

Key = Hashable
Value = object
Pair = Tuple[Key, Value]

__all__ = [
    "StructuredOutcome",
    "StructuredReducer",
    "register_structured_reducer",
    "get_structured_reducer",
    "available_structured_reducers",
    "resolve_structured_reducer",
    "execute_reference",
    "execute_segments",
    "grouping_order",
    "segment_eligible",
]

# Key-array dtypes a structured round can group with one argsort: integers,
# unsigned, booleans, fixed-width strings/bytes, and floats (NaN-free — the
# caller checks, since NaN breaks grouping-by-equality).
_SEGMENT_KEY_KINDS = frozenset("iubUSf")


@dataclass(frozen=True)
class StructuredOutcome:
    """What a backend reports after executing one structured shuffle+reduce.

    ``output`` is an :class:`ArrayPairs` batch (groups in first-occurrence
    order of their key); ``pairs_shuffled`` is the number of mapped pairs
    moved through the shuffle and ``max_reducer_input`` the size of the
    largest group (the M_L-constrained quantity).
    """

    output: ArrayPairs
    pairs_shuffled: int
    max_reducer_input: int


# --------------------------------------------------------------------------- #
# Reducer vocabulary
# --------------------------------------------------------------------------- #
class StructuredReducer(ABC):
    """A reducer the backends can evaluate without per-key Python calls.

    Implementations provide two semantically identical evaluations:

    * :meth:`segment_reduce` — the array fast path: given the value rows
      sorted by key and the segment boundaries of each group, produce one
      reduced row per group (plus an optional emit mask for reducers that
      drop groups); and
    * :meth:`reference` — the per-key tuple-path callable with the exact
      same semantics, used by the serial backend and by the fallback for
      keys an argsort cannot group.  Bit-compatibility between the two is
      what the cross-backend equivalence suite enforces.

    ``values_ndim`` restricts the accepted value-array rank (``None`` = any);
    violating it raises ``ValueError`` identically on every backend.
    """

    name: str = "abstract"
    #: Required rank of the values array (1 = scalars, 2 = rows); None = any.
    values_ndim: Optional[int] = None

    @abstractmethod
    def segment_reduce(
        self, sorted_values: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Reduce each segment ``sorted_values[starts[i]:ends[i]]``.

        Returns ``(rows, emit_mask)`` where ``rows`` holds one reduced value
        per segment and ``emit_mask`` (or ``None`` for all-emit) selects the
        groups that produce output.
        """

    @abstractmethod
    def reference(self, key: Key, values: List[Value]) -> Iterable[Pair]:
        """Tuple-path callable with semantics identical to the segment path."""

    # ------------------------------------------------------------------ #
    def result_dtype(self, values: np.ndarray) -> np.dtype:
        """Dtype of the output value array (defaults to the input dtype)."""
        return values.dtype

    def result_row_shape(self, values: np.ndarray) -> Tuple[int, ...]:
        """Trailing shape of one output value (defaults to the input row)."""
        return values.shape[1:]

    def validate_values(self, values: np.ndarray) -> None:
        """Reject value arrays this reducer cannot evaluate (all backends)."""
        if self.values_ndim is not None and values.ndim != self.values_ndim:
            raise ValueError(
                f"structured reducer {self.name!r} requires a "
                f"{self.values_ndim}-d values array, got ndim={values.ndim}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class _MinReducer(StructuredReducer):
    name = "min"
    values_ndim = 1

    def segment_reduce(self, sorted_values, starts, ends):
        return np.minimum.reduceat(sorted_values, starts), None

    def reference(self, key, values):
        yield (key, min(values))


class _MaxReducer(StructuredReducer):
    name = "max"
    values_ndim = 1

    def segment_reduce(self, sorted_values, starts, ends):
        return np.maximum.reduceat(sorted_values, starts), None

    def reference(self, key, values):
        yield (key, max(values))


class _SumReducer(StructuredReducer):
    """Per-group sum.  Group sums must fit the value dtype: the segment path
    wraps on int64/uint64 overflow (NumPy semantics) while the tuple path
    sums exactly in Python and then fails to convert, so workloads whose sums
    overflow are outside the bit-compatibility contract."""

    name = "sum"
    values_ndim = 1

    def segment_reduce(self, sorted_values, starts, ends):
        return np.add.reduceat(sorted_values, starts), None

    def reference(self, key, values):
        yield (key, sum(values))


class _CountReducer(StructuredReducer):
    name = "count"

    def segment_reduce(self, sorted_values, starts, ends):
        return (ends - starts).astype(np.int64), None

    def reference(self, key, values):
        yield (key, len(values))

    def result_dtype(self, values):
        return np.dtype(np.int64)

    def result_row_shape(self, values):
        return ()


class _FirstReducer(StructuredReducer):
    name = "first"

    def segment_reduce(self, sorted_values, starts, ends):
        # The stable key sort keeps arrival order within a group, so the
        # segment head is the first-arriving value — dict semantics.
        return sorted_values[starts], None

    def reference(self, key, values):
        yield (key, values[0])


class _ArgminReducer(StructuredReducer):
    """Keep, per group, the lexicographically smallest composite-key row.

    Values are 2-d rows; the winner is the row minimizing
    ``(row[0], row[1], ...)``, ties resolved by arrival order — exactly
    ``min(values)`` over the flattened row lists.
    """

    name = "argmin"
    values_ndim = 2

    def segment_reduce(self, sorted_values, starts, ends):
        segment_ids = np.repeat(np.arange(starts.size), ends - starts)
        # lexsort: last key is primary — segment first, then columns left to
        # right; the stable sort keeps arrival order among tied rows.
        keys = tuple(sorted_values[:, c] for c in range(sorted_values.shape[1] - 1, -1, -1))
        order = np.lexsort(keys + (segment_ids,))
        return sorted_values[order[starts]], None

    def reference(self, key, values):
        yield (key, min(values))


class _BitwiseOrReducer(StructuredReducer):
    """Bitwise OR of every value in the group (HADI/ANF sketch merging)."""

    name = "bitwise_or"

    def segment_reduce(self, sorted_values, starts, ends):
        return np.bitwise_or.reduceat(sorted_values, starts, axis=0), None

    def reference(self, key, values):
        merged = values[0]
        for value in values[1:]:
            if isinstance(merged, (list, tuple)):
                merged = [a | b for a, b in zip(merged, value)]
            else:
                merged = merged | value
        yield (key, merged)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, StructuredReducer] = {}


def register_structured_reducer(reducer: StructuredReducer, *, overwrite: bool = False) -> StructuredReducer:
    """Add ``reducer`` to the registry under ``reducer.name``.

    Returns the reducer for chaining.
    """
    if not isinstance(reducer, StructuredReducer):
        raise TypeError(f"expected a StructuredReducer, got {type(reducer).__name__}")
    if not overwrite and reducer.name in _REGISTRY:
        raise ValueError(f"structured reducer {reducer.name!r} already registered")
    _REGISTRY[reducer.name] = reducer
    return reducer


def get_structured_reducer(name: str) -> StructuredReducer:
    """Look up a registered reducer by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown structured reducer {name!r}; available: {available_structured_reducers()}"
        ) from None


def available_structured_reducers() -> List[str]:
    """Sorted names accepted by :func:`get_structured_reducer`."""
    return sorted(_REGISTRY)


def resolve_structured_reducer(spec: Union[str, StructuredReducer]) -> StructuredReducer:
    """Resolve a registered name or an instance to a :class:`StructuredReducer`."""
    if isinstance(spec, StructuredReducer):
        return spec
    if isinstance(spec, str):
        return get_structured_reducer(spec)
    raise TypeError(
        f"reducer must be a registered name or a StructuredReducer, got {spec!r}; "
        f"registered: {available_structured_reducers()}"
    )


for _reducer in (
    _MinReducer(),
    _MaxReducer(),
    _SumReducer(),
    _CountReducer(),
    _FirstReducer(),
    _ArgminReducer(),
    _BitwiseOrReducer(),
):
    register_structured_reducer(_reducer)


# --------------------------------------------------------------------------- #
# Execution strategies
# --------------------------------------------------------------------------- #
def segment_eligible(keys: np.ndarray) -> bool:
    """True when the key array can be grouped with one stable argsort."""
    if keys.dtype.kind not in _SEGMENT_KEY_KINDS:
        return False
    if keys.dtype.kind == "f" and bool(np.isnan(keys).any()):
        return False
    return True


def _empty_outcome(mapped: ArrayPairs, reducer: StructuredReducer) -> StructuredOutcome:
    keys = np.zeros(0, dtype=mapped.keys.dtype)
    values = np.zeros(
        (0,) + reducer.result_row_shape(mapped.values), dtype=reducer.result_dtype(mapped.values)
    )
    return StructuredOutcome(ArrayPairs(keys, values), 0, 0)


def execute_reference(mapped: ArrayPairs, reducer: StructuredReducer) -> StructuredOutcome:
    """The tuple path: flatten to per-pair tuples, dict shuffle, per-key calls.

    This is the bit-compatibility reference every other strategy is tested
    against — it deliberately pays the per-pair Python-object cost the
    structured fast paths exist to avoid.
    """
    reducer.validate_values(mapped.values)
    if len(mapped) == 0:
        return _empty_outcome(mapped, reducer)
    groups: Dict[Key, List[Value]] = {}
    for key, value in mapped.to_pairs():
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [value]
        else:
            bucket.append(value)
    max_input = max(len(bucket) for bucket in groups.values())
    out_keys: List[Key] = []
    out_values: List[Value] = []
    for key, bucket in groups.items():
        for out_key, out_value in reducer.reference(key, bucket):
            out_keys.append(out_key)
            out_values.append(out_value)
    if not out_keys:
        outcome = _empty_outcome(mapped, reducer)
        return StructuredOutcome(outcome.output, len(mapped), max_input)
    keys_array = _pack(out_keys, mapped.keys.dtype, ())
    values_array = _pack(
        out_values, reducer.result_dtype(mapped.values), reducer.result_row_shape(mapped.values)
    )
    return StructuredOutcome(ArrayPairs(keys_array, values_array), len(mapped), max_input)


def _pack(items: List[object], dtype: np.dtype, row_shape: Tuple[int, ...]) -> np.ndarray:
    """``np.asarray(items, dtype)`` that keeps scalar object items whole.

    NumPy unpacks a list of equal-length tuples into a 2-d array even with
    ``dtype=object``; tuple keys must stay one element per group.
    """
    if np.dtype(dtype) != object or row_shape:
        return np.asarray(items, dtype=dtype)
    packed = np.empty(len(items), dtype=object)
    for index, item in enumerate(items):
        packed[index] = item
    return packed


def grouping_order(keys: np.ndarray) -> np.ndarray:
    """Stable permutation sorting ``keys`` (the shuffle's grouping pass).

    Semantically ``np.argsort(keys, kind="stable")``, with two much faster
    routes for the integer node-id keys every MR driver uses: a radix argsort
    when the key range fits 16 bits, and otherwise a pack-sort — key in the
    high bits, position in the low bits of one int64, sorted with an unstable
    C quicksort (the embedded position makes the order stable by
    construction).  Both return the identical permutation.
    """
    n = keys.size
    if n > 1 and keys.dtype.kind in "iu":
        lo = int(keys.min())
        hi = int(keys.max())
        if hi - lo < (1 << 16):
            return np.argsort((keys - lo).astype(np.uint16), kind="stable")
        index_bits = max(1, (n - 1).bit_length())
        if lo >= 0 and hi.bit_length() + index_bits <= 63:
            packed = (keys.astype(np.int64) << index_bits) | np.arange(n, dtype=np.int64)
            packed.sort()
            return packed & ((np.int64(1) << index_bits) - np.int64(1))
    return np.argsort(keys, kind="stable")


def _segment_groups(
    keys: np.ndarray, values: np.ndarray, reducer: StructuredReducer
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Group+reduce one key/value array pair with segment reductions.

    Returns ``(first_occurrence, group_keys, rows, max_input)`` restricted to
    the emitting groups; ``first_occurrence`` holds input positions.
    """
    order = grouping_order(keys)
    sorted_keys = keys[order]
    boundary = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], boundary))
    ends = np.concatenate((boundary, [sorted_keys.size]))
    max_input = int((ends - starts).max())
    rows, emit = reducer.segment_reduce(values[order], starts, ends)
    first_occurrence = order[starts]
    group_keys = sorted_keys[starts]
    if emit is not None:
        first_occurrence = first_occurrence[emit]
        group_keys = group_keys[emit]
        rows = rows[emit]
    return first_occurrence, group_keys, rows, max_input


def execute_segments(mapped: ArrayPairs, reducer: StructuredReducer) -> StructuredOutcome:
    """The array fast path: one stable argsort + pure segment reductions.

    Falls back to :func:`execute_reference` when the key array cannot be
    argsort-grouped (object dtype, NaN floats) so the call never fails where
    the serial backend would succeed.
    """
    reducer.validate_values(mapped.values)
    if len(mapped) == 0:
        return _empty_outcome(mapped, reducer)
    if not segment_eligible(mapped.keys):
        return execute_reference(mapped, reducer)
    first_occurrence, group_keys, rows, max_input = _segment_groups(
        mapped.keys, mapped.values, reducer
    )
    # First-occurrence indices are distinct, so an unstable sort suffices.
    emit_order = np.argsort(first_occurrence)
    output = ArrayPairs(group_keys[emit_order], rows[emit_order])
    return StructuredOutcome(output, len(mapped), max_input)
