"""Structured MR rounds: four named reductions executed as segment passes.

A *structured round* pairs an unflattened :class:`ArrayPairs` batch with the
name of one of four reducers and executes it as one *segment pass*
(:func:`execute_segments`): one stable sort of the key array
(:func:`grouping_order`), then one NumPy reduction over each group's slice.
There is never one Python call per pair or per key, which is exactly the
per-pair object cost the paper's linear-communication algorithms are
supposed to avoid.  The reducers are the ones the MR algorithms run:

* ``first`` — the first-arriving value of each group (double-sweep BFS);
* ``sum`` — the group sum;
* ``count`` — the group size (an int64, whatever the values);
* ``bitwise_or`` — the OR of every value row of the group (HADI's sketches).

The output is what a dict group-by calling one function per key would
produce: groups are emitted in first-occurrence order of their key, and each
reduction sees its values in arrival order.  ``sum`` is the one departure:
its float sums are not added in arrival order (see :func:`_sum`).  Keys must
be groupable by one sort: integer, boolean, fixed-width string or bytes, or
NaN-free float arrays.  Any other key array (object, complex, datetime, or
float holding NaN) raises ``ValueError``.
(``tests/mapreduce/mr_reference.py`` holds the dict shuffle as the frozen
reference the segment pass is pinned to.)

Rounds whose reduce step would emit many rows per group — the sample sort
and prefix sums of Fact 1 — are not executed but charged analytically
(:func:`~repro.mapreduce.model.rounds_for_primitive`,
:meth:`~repro.mapreduce.engine.MREngine.charge_rounds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Tuple

import numpy as np

__all__ = [
    "ArrayPairs",
    "StructuredOutcome",
    "execute_segments",
    "grouping_order",
]

# Key-array dtypes one sort groups: integers, unsigned, booleans, fixed-width
# strings/bytes, and floats (NaN-free — NaN breaks grouping-by-equality).
_SORTABLE_KEY_KINDS = frozenset("iubUSf")


class ArrayPairs:
    """Unflattened batch of key-value pairs: one keys array, one values array.

    ``keys`` must be a one-dimensional NumPy array; ``values`` must be a NumPy
    array whose first dimension matches ``keys``.
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
# The four reductions: (value rows sorted by key, group starts, group ends)
# -> one row per group.
# --------------------------------------------------------------------------- #
def _first(sorted_values, starts, ends):
    # The stable key sort keeps arrival order within a group, so the segment
    # head is the first-arriving value — dict semantics.
    return sorted_values[starts]


def _sum(sorted_values, starts, ends):
    # Integer group sums must fit the value dtype: they wrap on overflow
    # (NumPy semantics), so overflowing workloads are outside the contract.
    # np.add.reduceat sums each slice pairwise, so a float sum may differ from
    # the arrival-order sum in the last bits: by at most
    # 2 (k - 1) 2**-53 sum(|v|) for a group of k values.
    return np.add.reduceat(sorted_values, starts)


def _count(sorted_values, starts, ends):
    return (ends - starts).astype(np.int64)


def _bitwise_or(sorted_values, starts, ends):
    return np.bitwise_or.reduceat(sorted_values, starts, axis=0)


_REDUCTIONS = {"first": _first, "sum": _sum, "count": _count, "bitwise_or": _bitwise_or}


# --------------------------------------------------------------------------- #
# The segment pass
# --------------------------------------------------------------------------- #
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


def execute_segments(mapped: ArrayPairs, reducer: str) -> StructuredOutcome:
    """Execute one structured round: one stable key sort + segment reductions.

    ``reducer`` names one of ``first``, ``sum``, ``count`` and
    ``bitwise_or``; an unknown name, or a key array one sort cannot group,
    raises ``ValueError``.
    """
    reduce = _REDUCTIONS.get(reducer)
    if reduce is None:
        raise ValueError(f"unknown reducer {reducer!r}; the reducers are {sorted(_REDUCTIONS)}")
    keys = mapped.keys
    kind = keys.dtype.kind
    if kind not in _SORTABLE_KEY_KINDS or (kind == "f" and bool(np.isnan(keys).any())):
        raise ValueError(
            f"keys of dtype {keys.dtype} cannot be grouped by one sort; "
            "use integer, boolean, string, bytes or NaN-free float keys"
        )
    if len(mapped) == 0:
        none = np.zeros(0, dtype=np.intp)
        return StructuredOutcome(ArrayPairs(keys, reduce(mapped.values, none, none)), 0, 0)
    order = grouping_order(keys)
    sorted_keys = keys[order]
    boundary = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], boundary))
    ends = np.concatenate((boundary, [sorted_keys.size]))
    rows = reduce(mapped.values[order], starts, ends)
    first_occurrence = order[starts]
    # First-occurrence indices are distinct, so an unstable sort suffices.
    emit_order = np.argsort(first_occurrence)
    output = ArrayPairs(keys[first_occurrence[emit_order]], rows[emit_order])
    return StructuredOutcome(output, len(mapped), int((ends - starts).max()))
