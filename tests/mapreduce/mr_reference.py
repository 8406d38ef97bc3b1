"""Frozen tuple-path reference the structured MR rounds are pinned to.

The production round (:func:`repro.mapreduce.structured.execute_segments`)
sorts the key array once and reduces each group's slice with
``np.<ufunc>.reduceat``.  The *tuple path* here is the original,
obviously-correct implementation it replaced: flatten the batch to Python
``(key, value)`` tuples, group them in a dict, and call one Python function
per key.  Tests and ``benchmarks/bench_structured.py`` compare the two bit
for bit (and time them).  None of this runs in production.

* :func:`execute_reference` — the dict shuffle with one call per key;
* :data:`PER_KEY` — one per-key function per built-in reducer (a custom
  test reducer supplies its own ``reference(key, values)`` method instead);
* :func:`tuple_path` — sends every ``MREngine`` round through
  :func:`execute_reference` inside the block, by patching the one
  module-level name through which ``repro.mapreduce.engine`` calls
  ``execute_segments``.  :func:`on_path` names the two sides the suites
  compare: ``"serial"`` (this reference) and ``"vectorized"`` (production).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.mapreduce import engine
from repro.mapreduce.structured import ArrayPairs, StructuredOutcome

PATHS = ("serial", "vectorized")


def _bitwise_or(key, values):
    merged = values[0]
    for value in values[1:]:
        if isinstance(merged, (list, tuple)):
            merged = [a | b for a, b in zip(merged, value)]
        else:
            merged = merged | value
    yield (key, merged)


PER_KEY = {
    "min": lambda key, values: [(key, min(values))],
    "max": lambda key, values: [(key, max(values))],
    "sum": lambda key, values: [(key, sum(values))],
    "count": lambda key, values: [(key, len(values))],
    "first": lambda key, values: [(key, values[0])],
    "argmin": lambda key, values: [(key, min(values))],
    "bitwise_or": _bitwise_or,
}


def per_key_function(reducer):
    """``reducer.reference`` for a custom test reducer, else the built-in's twin."""
    return getattr(reducer, "reference", None) or PER_KEY[reducer.name]


def _empty(mapped, reducer, pairs_shuffled=0, max_input=0):
    keys = np.zeros(0, dtype=mapped.keys.dtype)
    values = np.zeros(
        (0,) + reducer.result_row_shape(mapped.values), dtype=reducer.result_dtype(mapped.values)
    )
    return StructuredOutcome(ArrayPairs(keys, values), pairs_shuffled, max_input)


def _pack(items, dtype, row_shape):
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


def execute_reference(mapped: ArrayPairs, reducer) -> StructuredOutcome:
    """The tuple path: flatten to per-pair tuples, dict shuffle, per-key calls."""
    reducer.validate_values(mapped.values)
    if len(mapped) == 0:
        return _empty(mapped, reducer)
    groups = {}
    for key, value in mapped.to_pairs():
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [value]
        else:
            bucket.append(value)
    max_input = max(len(bucket) for bucket in groups.values())
    function = per_key_function(reducer)
    out_keys, out_values = [], []
    for key, bucket in groups.items():
        for out_key, out_value in function(key, bucket):
            out_keys.append(out_key)
            out_values.append(out_value)
    if not out_keys:
        return _empty(mapped, reducer, len(mapped), max_input)
    keys_array = _pack(out_keys, mapped.keys.dtype, ())
    values_array = _pack(
        out_values, reducer.result_dtype(mapped.values), reducer.result_row_shape(mapped.values)
    )
    return StructuredOutcome(ArrayPairs(keys_array, values_array), len(mapped), max_input)


@contextlib.contextmanager
def tuple_path():
    """Run every ``MREngine`` round through :func:`execute_reference` inside the block."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(engine, "execute_segments", execute_reference)
        yield


def on_path(name: str):
    """:func:`tuple_path` for ``"serial"``; the production segment pass for ``"vectorized"``."""
    return tuple_path() if name == "serial" else contextlib.nullcontext()
