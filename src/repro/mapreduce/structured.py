"""Structured MR rounds: array-native reducers executed as segment reductions.

A *structured round* pairs an unflattened :class:`ArrayPairs` batch with a
declarative :class:`StructuredReducer` — a built-in (``min``, ``max``,
``sum``, ``count``, ``first``, ``argmin``, ``bitwise_or``) or a custom
instance — and executes it as one *segment pass*
(:func:`execute_segments`): one stable sort of the key array, then
``np.<ufunc>.reduceat``-style reductions over each group's slice
(:meth:`~StructuredReducer.segment_reduce`).  There is never one Python
callable per pair or per key, which is exactly the per-pair object cost the
paper's linear-communication algorithms are supposed to avoid.

The output is what a dict group-by calling one function per key would
produce: groups are emitted in first-occurrence order of their key, each
reducer sees its values in arrival order, and keys group by hash and ``==``.
Key arrays a sort cannot group (object dtype, NaN floats, complex, datetime)
are first mapped to int64 codes through a dict, so ``True`` and ``1`` merge,
``"3"`` and ``3`` stay apart and each NaN is its own group.
(``tests/mapreduce/mr_reference.py`` holds that dict shuffle as the frozen
reference the segment pass is pinned to.)

A reducer emits one row per group (plus an optional emit mask); rounds whose
reduce step would emit many rows per group — the sample sort and prefix sums
of Fact 1 — are not executed but charged analytically
(:func:`~repro.mapreduce.model.rounds_for_primitive`,
:meth:`~repro.mapreduce.engine.MREngine.charge_rounds`).

A custom segment reducer is passed as an instance::

    class MyReducer(StructuredReducer):
        name = "my-reducer"
        def segment_reduce(self, sorted_values, starts, ends): ...

    engine.run_structured_round(batch, MyReducer())
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ArrayPairs",
    "StructuredOutcome",
    "StructuredReducer",
    "resolve_structured_reducer",
    "execute_segments",
    "grouping_order",
]

# Key-array dtypes a structured round groups with one sort: integers,
# unsigned, booleans, fixed-width strings/bytes, and floats (NaN-free — NaN
# breaks grouping-by-equality).  Every other key array is grouped by dict codes.
_SORTABLE_KEY_KINDS = frozenset("iubUSf")


class ArrayPairs:
    """Unflattened batch of key-value pairs: one keys array, one values array.

    ``keys`` must be a one-dimensional NumPy array; ``values`` must be a NumPy
    array (any dtype, including ``object``) whose first dimension matches
    ``keys``.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys = np.asarray(keys)
        values = np.asarray(values)
        if keys.ndim != 1:
            raise ValueError(f"keys must be one-dimensional, got shape {keys.shape}")
        if values.shape[:1] != keys.shape:
            raise ValueError(
                f"keys and values must have the same length, got shapes {keys.shape} and {values.shape}"
            )
        self.keys = keys
        self.values = values

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def to_pairs(self) -> List[Tuple[Hashable, object]]:
        """Flatten into ``(key, value)`` tuples of Python scalars."""
        return list(zip(self.keys.tolist(), self.values.tolist()))


@dataclass(frozen=True)
class StructuredOutcome:
    """What one structured shuffle+reduce reports.

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
    """A reducer evaluated as segment reductions, without per-key Python calls.

    :meth:`segment_reduce` receives the value rows sorted by key and the
    segment boundaries of each group, and produces one reduced row per group
    (plus an optional emit mask for reducers that drop groups).
    ``values_ndim`` restricts the accepted value-array rank (``None`` = any);
    violating it raises ``ValueError``.
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

    # ------------------------------------------------------------------ #
    def result_dtype(self, values: np.ndarray) -> np.dtype:
        """Dtype of the output value array (defaults to the input dtype)."""
        return values.dtype

    def result_row_shape(self, values: np.ndarray) -> Tuple[int, ...]:
        """Trailing shape of one output value (defaults to the input row)."""
        return values.shape[1:]

    def validate_values(self, values: np.ndarray) -> None:
        """Reject value arrays this reducer cannot evaluate."""
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


class _MaxReducer(StructuredReducer):
    name = "max"
    values_ndim = 1

    def segment_reduce(self, sorted_values, starts, ends):
        return np.maximum.reduceat(sorted_values, starts), None


class _SumReducer(StructuredReducer):
    """Per-group sum, with two departures from exact arrival-order addition.

    Integer group sums must fit the value dtype: they wrap on int64/uint64
    overflow (NumPy semantics), so overflowing workloads are outside the
    contract.  Float sums are not added in arrival order (``np.add.reduceat``
    sums each slice pairwise), so they may differ from a left-to-right sum
    in the last bits: by at most ``2 (k - 1) 2**-53 sum(|v|)`` for a group
    of ``k`` values.
    """

    name = "sum"
    values_ndim = 1

    def segment_reduce(self, sorted_values, starts, ends):
        return np.add.reduceat(sorted_values, starts), None


class _CountReducer(StructuredReducer):
    name = "count"

    def segment_reduce(self, sorted_values, starts, ends):
        return (ends - starts).astype(np.int64), None

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


class _BitwiseOrReducer(StructuredReducer):
    """Bitwise OR of every value in the group (HADI/ANF sketch merging)."""

    name = "bitwise_or"

    def segment_reduce(self, sorted_values, starts, ends):
        return np.bitwise_or.reduceat(sorted_values, starts, axis=0), None


_BUILTIN_REDUCERS = {
    reducer.name: reducer
    for reducer in (
        _MinReducer(),
        _MaxReducer(),
        _SumReducer(),
        _CountReducer(),
        _FirstReducer(),
        _ArgminReducer(),
        _BitwiseOrReducer(),
    )
}


def resolve_structured_reducer(spec: Union[str, StructuredReducer]) -> StructuredReducer:
    """Resolve a built-in reducer name or an instance to a :class:`StructuredReducer`."""
    if isinstance(spec, StructuredReducer):
        return spec
    if isinstance(spec, str) and spec in _BUILTIN_REDUCERS:
        return _BUILTIN_REDUCERS[spec]
    builtins = sorted(_BUILTIN_REDUCERS)
    if isinstance(spec, str):
        raise ValueError(f"unknown structured reducer {spec!r}; built-ins: {builtins}")
    raise TypeError(
        f"reducer must be a built-in name or a StructuredReducer, got {spec!r}; built-ins: {builtins}"
    )


# --------------------------------------------------------------------------- #
# The segment pass
# --------------------------------------------------------------------------- #
def _empty_outcome(mapped: ArrayPairs, reducer: StructuredReducer) -> StructuredOutcome:
    keys = np.zeros(0, dtype=mapped.keys.dtype)
    values = np.zeros(
        (0,) + reducer.result_row_shape(mapped.values), dtype=reducer.result_dtype(mapped.values)
    )
    return StructuredOutcome(ArrayPairs(keys, values), 0, 0)


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


def _dict_codes(keys: np.ndarray) -> np.ndarray:
    """Int64 group codes in first-occurrence order, grouping like a dict.

    Keys group by hash and ``==`` exactly as dict keys do: ``True`` and ``1``
    share a code, ``"3"`` and ``3`` do not, and each NaN gets its own.
    """
    codes: dict = {}
    return np.fromiter(
        (codes.setdefault(key, len(codes)) for key in keys.tolist()), dtype=np.int64, count=keys.size
    )


def execute_segments(mapped: ArrayPairs, reducer: StructuredReducer) -> StructuredOutcome:
    """Execute one structured round: one stable key sort + segment reductions.

    Key arrays a sort cannot group (object dtype, NaN floats, complex,
    datetime) are sorted by their dict codes instead; either way each group
    emits the key of its first occurrence, so tuple keys stay whole.
    """
    reducer.validate_values(mapped.values)
    if len(mapped) == 0:
        return _empty_outcome(mapped, reducer)
    keys = mapped.keys
    sortable = keys.dtype.kind in _SORTABLE_KEY_KINDS
    if sortable and keys.dtype.kind == "f":
        sortable = not bool(np.isnan(keys).any())
    group_by = keys if sortable else _dict_codes(keys)
    order = grouping_order(group_by)
    sorted_keys = group_by[order]
    boundary = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], boundary))
    ends = np.concatenate((boundary, [sorted_keys.size]))
    max_input = int((ends - starts).max())
    rows, emit = reducer.segment_reduce(mapped.values[order], starts, ends)
    first_occurrence = order[starts]
    if emit is not None:
        first_occurrence = first_occurrence[emit]
        rows = rows[emit]
    # First-occurrence indices are distinct, so an unstable sort suffices.
    emit_order = np.argsort(first_occurrence)
    output = ArrayPairs(keys[first_occurrence[emit_order]], rows[emit_order])
    return StructuredOutcome(output, len(mapped), max_input)
