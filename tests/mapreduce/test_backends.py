"""Cross-backend equivalence suite for the MR execution backends.

Every backend must be bit-compatible with the serial reference: identical
output pairs (same order, same dtypes) and identical :class:`MRMetrics` for
any structured round.  This is what allows the experiment harness to treat
the backend as a pure performance knob.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapreduce.backends import (
    ArrayPairs,
    SerialBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
)
from repro.mapreduce.engine import MREngine
from repro.mapreduce.model import MRConstraintViolation, MRModel

BACKENDS = ("serial", "vectorized")
SCALAR_REDUCERS = ("min", "max", "sum", "count", "first")


def object_keys(items):
    """A 1-d object key array holding ``items`` whole (tuples included)."""
    keys = np.empty(len(items), dtype=object)
    for index, item in enumerate(items):
        keys[index] = item
    return keys


def fanout_map(batch):
    """A map phase emitting two pairs per input pair."""
    return ArrayPairs(
        np.concatenate((batch.keys, batch.keys + 1)),
        np.concatenate((batch.values, batch.values * 2)),
    )


def run_all_backends(batch, reducer):
    """One structured round per backend; returns {name: (pairs, dtypes, metrics)}."""
    results = {}
    for name in BACKENDS:
        engine = MREngine(backend=name)
        out = engine.run_structured_round(batch, reducer)
        results[name] = (out.to_pairs(), (str(out.keys.dtype), str(out.values.dtype)), engine.metrics.as_dict())
    return results


def _pairs_equal(left, right):
    """Pair-list equality treating scalar NaN keys/values as equal."""
    if len(left) != len(right):
        return False
    for (lk, lv), (rk, rv) in zip(left, right):
        for a, b in ((lk, rk), (lv, rv)):
            if isinstance(a, float) and isinstance(b, float) and np.isnan(a) and np.isnan(b):
                continue
            if type(a) is not type(b) or a != b:
                return False
    return True


def assert_all_equal(results):
    reference = results["serial"]
    for name, (pairs, dtypes, metrics) in results.items():
        assert _pairs_equal(pairs, reference[0]), f"{name} output differs from serial"
        assert dtypes == reference[1], f"{name} dtypes differ from serial"
        assert metrics == reference[2], f"{name} metrics differ from serial"


# ---------------------------------------------------------------------- #
# Random-workload property tests
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_int_workloads_identical(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 400))
    batch = ArrayPairs(rng.integers(0, max(2, size // 4), size=size), rng.integers(-100, 100, size=size))
    assert_all_equal(run_all_backends(batch, "sum"))


@pytest.mark.parametrize("seed", [0, 1])
def test_random_workloads_with_mapper_identical(seed):
    rng = np.random.default_rng(100 + seed)
    size = int(rng.integers(1, 200))
    batch = ArrayPairs(rng.integers(0, 20, size=size), rng.integers(0, 9, size=size))
    assert_all_equal(run_all_backends(fanout_map(batch), "sum"))


def test_string_keys_identical():
    rng = np.random.default_rng(7)
    words = np.array(["alpha", "beta", "gamma", "delta", "a", "zz"])
    batch = ArrayPairs(words[rng.integers(0, len(words), 300)], rng.integers(0, 50, 300))
    assert_all_equal(run_all_backends(batch, "sum"))


def test_tuple_keys_fall_back_and_stay_identical():
    # Object-dtype tuple keys defeat the argsort fast path; every backend
    # must fall back to the tuple path and keep each tuple one key.
    rng = np.random.default_rng(8)
    keys = object_keys([(int(k) % 3, int(k) % 5) for k in rng.integers(0, 30, 200)])
    results = run_all_backends(ArrayPairs(keys, rng.integers(0, 9, 200)), "sum")
    assert_all_equal(results)
    assert all(isinstance(key, tuple) for key, _ in results["serial"][0])


def test_mixed_type_keys_identical():
    keys = object_keys([None, "x", 3, None, (1, 2), "x"])
    results = run_all_backends(ArrayPairs(keys, np.arange(6)), "count")
    assert_all_equal(results)
    assert results["serial"][0] == [(None, 2), ("x", 2), (3, 1), ((1, 2), 1)]


def test_str_and_int_keys_stay_distinct():
    # np.asarray([3, "3"]) coerces to one string dtype; an object key array
    # must keep keys a dict keeps distinct.
    results = run_all_backends(ArrayPairs(object_keys(["3", 3, "3", 3]), np.array([1, 2, 4, 8])), "sum")
    assert_all_equal(results)
    assert results["serial"][0] == [("3", 5), (3, 10)]


def test_bytes_and_str_keys_stay_distinct():
    results = run_all_backends(ArrayPairs(object_keys([b"a", "a", b"a"]), np.array([1, 2, 4])), "sum")
    assert_all_equal(results)
    assert results["serial"][0] == [(b"a", 5), ("a", 2)]


def test_bool_and_int_keys_merge_like_dict():
    # hash(True) == hash(1): a dict groups them; every backend must agree.
    results = run_all_backends(ArrayPairs(object_keys([True, 1, 0, False]), np.array([1, 2, 4, 8])), "sum")
    assert_all_equal(results)
    assert results["serial"][0] == [(True, 3), (0, 12)]


def test_numpy_array_values_identical():
    # Row values (HADI-sketch-like payloads) must survive grouping on every
    # backend.
    rng = np.random.default_rng(9)
    rows = rng.integers(0, 2**32, size=(40, 4), dtype=np.uint64)
    results = run_all_backends(ArrayPairs(rng.integers(0, 6, 40), rows), "first")
    assert_all_equal(results)
    assert results["serial"][1][1] == "uint64"


def test_sorted_outputs_identical_on_large_random_workload():
    rng = np.random.default_rng(10)
    batch = ArrayPairs(rng.integers(0, 500, 5000), rng.integers(0, 1000, 5000))
    results = run_all_backends(batch, "sum")
    assert_all_equal(results)
    reference = sorted(results["serial"][0])
    for name, (pairs, _, _) in results.items():
        assert sorted(pairs) == reference, name


# ---------------------------------------------------------------------- #
# Randomized cross-backend equivalence sweep
# ---------------------------------------------------------------------- #
def _random_workload(rng):
    """One random structured round: (ArrayPairs, reducer name).

    Samples the whole key space the backends must agree on: int keys,
    single-key and empty batches, string keys, object-dtype tuple and mixed
    keys, and float keys with and without NaN.
    """
    family = rng.choice(["int", "single-key", "empty", "str", "tuple", "mixed", "float", "nan-float"])
    size = int(rng.integers(1, 200))
    values = rng.integers(-50, 50, size=size)
    reducer = str(rng.choice(SCALAR_REDUCERS))
    if family == "empty":
        return ArrayPairs(np.zeros(0, np.int64), np.zeros(0, np.int64)), reducer
    if family == "int":
        keys = rng.integers(-10, 25, size=size)
    elif family == "single-key":
        keys = np.full(size, int(rng.integers(0, 5)))
    elif family == "str":
        keys = np.array(["alpha", "beta", "gamma", "d", "ee"])[rng.integers(0, 5, size)]
    elif family == "tuple":
        keys = object_keys([(int(k) % 3, int(k) % 4) for k in rng.integers(0, 24, size)])
    elif family == "mixed":
        pool = [None, "x", 3, (1, 2), "3", b"x", True, 0]
        keys = object_keys([pool[int(k) % len(pool)] for k in rng.integers(0, 64, size)])
    else:  # float / nan-float
        keys = rng.uniform(-3, 3, size).round(1)
        if family == "nan-float":
            keys[rng.random(size) < 0.2] = np.nan
    return ArrayPairs(keys, values), reducer


@pytest.mark.parametrize("seed", range(12))
def test_randomized_cross_backend_sweep(seed):
    """Any key family, any scalar reducer, any backend: identical output
    order, dtypes and metrics to the serial tuple-path reference."""
    rng = np.random.default_rng(1000 + seed)
    for _ in range(8):
        batch, reducer = _random_workload(rng)
        assert_all_equal(run_all_backends(batch, reducer))


# ---------------------------------------------------------------------- #
# ArrayPairs batches
# ---------------------------------------------------------------------- #
def test_array_pairs_identical_across_backends():
    rng = np.random.default_rng(11)
    batch = ArrayPairs(rng.integers(0, 40, 600), rng.integers(0, 1000, 600))
    for reducer in SCALAR_REDUCERS:
        assert_all_equal(run_all_backends(batch, reducer))


def test_array_pairs_matches_flattened_input():
    """The segment path equals a plain dict group-by over the flattened pairs."""
    rng = np.random.default_rng(12)
    batch = ArrayPairs(rng.integers(0, 25, 300), rng.integers(0, 9, 300))
    expected = {}
    for key, value in batch.to_pairs():
        expected[key] = expected.get(key, 0) + value
    engine = MREngine(backend="vectorized")
    out = engine.run_structured_round(batch, "sum")
    assert out.to_pairs() == list(expected.items())
    assert engine.metrics.shuffled_pairs == 300


def test_array_pairs_validation():
    with pytest.raises(ValueError):
        ArrayPairs(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        ArrayPairs(np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------- #
# Constraint checking behaves identically everywhere
# ---------------------------------------------------------------------- #
def assert_violation_enforced_and_recorded(backend, batch, **limits):
    with pytest.raises(MRConstraintViolation):
        MREngine(MRModel(enforce=True, **limits), backend=backend).run_structured_round(batch, "sum")
    recording = MRModel(enforce=False, **limits)
    out = MREngine(recording, backend=backend).run_structured_round(batch, "sum")
    assert out.to_pairs() == MREngine(backend="serial").run_structured_round(batch, "sum").to_pairs()
    assert recording.num_violations == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_local_memory_violation_raises_on_every_backend(backend):
    batch = ArrayPairs(np.zeros(5, dtype=np.int64), np.arange(5))
    assert_violation_enforced_and_recorded(backend, batch, local_memory=2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_global_memory_violation_raises_on_every_backend(backend):
    batch = ArrayPairs(np.arange(10), np.arange(10))
    assert_violation_enforced_and_recorded(backend, batch, global_memory=3)


# ---------------------------------------------------------------------- #
# Backend registry
# ---------------------------------------------------------------------- #
def test_available_backends():
    assert available_backends() == ["serial", "vectorized"]


def test_get_backend_resolution():
    assert isinstance(get_backend(None), SerialBackend)
    assert isinstance(get_backend("serial"), SerialBackend)
    assert isinstance(get_backend("vectorized"), VectorizedBackend)
    instance = VectorizedBackend()
    assert get_backend(instance) is instance
    with pytest.raises(ValueError):
        get_backend("spark")


def test_process_backend_is_gone():
    with pytest.raises(ValueError, match=r"'process'; available: \['serial', 'vectorized'\]"):
        get_backend("process")


def test_engine_exposes_backend_name():
    assert MREngine(backend="vectorized").backend_name == "vectorized"
    assert MREngine().backend_name == "serial"
