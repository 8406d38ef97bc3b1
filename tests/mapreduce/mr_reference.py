"""Frozen tuple-path reference the structured MR rounds are pinned to.

The production round (:func:`repro.mapreduce.structured.execute_segments`)
sorts the key array once and reduces each group's slice with one NumPy
reduction.  The *tuple path* here is the original, obviously-correct
implementation it replaced: flatten the batch to Python ``(key, value)``
tuples, group them in a dict, and call one Python function per key.  Tests
and ``benchmarks/bench_structured.py`` compare the two bit for bit (and time
them).  None of this runs in production.

* :func:`execute_reference` — the dict shuffle with one call per key;
* :data:`PER_KEY` — one per-key function per reducer name;
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


def _bitwise_or(values):
    merged = values[0]
    for value in values[1:]:
        if isinstance(merged, (list, tuple)):
            merged = [a | b for a, b in zip(merged, value)]
        else:
            merged = merged | value
    return merged


PER_KEY = {
    "first": lambda values: values[0],
    "sum": sum,
    "count": len,
    "bitwise_or": _bitwise_or,
}


def execute_reference(mapped: ArrayPairs, reducer: str) -> StructuredOutcome:
    """The tuple path: flatten to per-pair tuples, dict shuffle, per-key calls."""
    function = PER_KEY[reducer]
    groups = {}
    for key, value in mapped.to_pairs():
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [value]
        else:
            bucket.append(value)
    if reducer == "count":
        dtype, row_shape = np.int64, ()
    else:
        dtype, row_shape = mapped.values.dtype, mapped.values.shape[1:]
    keys = np.asarray(list(groups), dtype=mapped.keys.dtype)
    values = np.asarray([function(bucket) for bucket in groups.values()], dtype=dtype)
    max_input = max(map(len, groups.values()), default=0)
    return StructuredOutcome(
        ArrayPairs(keys, values.reshape((len(groups),) + row_shape)), len(mapped), max_input
    )


@contextlib.contextmanager
def tuple_path():
    """Run every ``MREngine`` round through :func:`execute_reference` inside the block."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(engine, "execute_segments", execute_reference)
        yield


def on_path(name: str):
    """:func:`tuple_path` for ``"serial"``; the production segment pass for ``"vectorized"``."""
    return tuple_path() if name == "serial" else contextlib.nullcontext()
