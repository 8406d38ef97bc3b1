"""The segment path against the frozen tuple-path reference.

The production round (one key sort + segment reductions) must be
bit-compatible with the tuple path of ``mr_reference.py``: identical output
pairs (same order, same dtypes) and identical :class:`MRMetrics` for any
structured round.  ``"serial"`` names the reference side (every round under
``tuple_path()``), ``"vectorized"`` the production side.  The one exception
is a float ``sum``, which may differ in the last bits and is held to a
float64 rounding bound instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from mr_reference import PATHS, on_path  # rootless test layout: pytest puts this dir on sys.path
from repro.mapreduce.engine import MREngine
from repro.mapreduce.model import MRConstraintViolation, MRModel
from repro.mapreduce.structured import ArrayPairs

REDUCERS = ("bitwise_or", "sum", "count", "first")


def fanout_map(batch):
    """A map phase emitting two pairs per input pair."""
    return ArrayPairs(
        np.concatenate((batch.keys, batch.keys + 1)),
        np.concatenate((batch.values, batch.values * 2)),
    )


def run_both_paths(batch, reducer):
    """One structured round per path; returns {name: (pairs, dtypes, metrics)}."""
    results = {}
    for name in PATHS:
        engine = MREngine()
        with on_path(name):
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
    assert_all_equal(run_both_paths(batch, "sum"))


@pytest.mark.parametrize("seed", [0, 1])
def test_random_workloads_with_mapper_identical(seed):
    rng = np.random.default_rng(100 + seed)
    size = int(rng.integers(1, 200))
    batch = ArrayPairs(rng.integers(0, 20, size=size), rng.integers(0, 9, size=size))
    assert_all_equal(run_both_paths(fanout_map(batch), "sum"))


def test_string_keys_identical():
    rng = np.random.default_rng(7)
    words = np.array(["alpha", "beta", "gamma", "delta", "a", "zz"])
    batch = ArrayPairs(words[rng.integers(0, len(words), 300)], rng.integers(0, 50, 300))
    assert_all_equal(run_both_paths(batch, "sum"))


def test_bool_and_int_keys_merge_like_dict():
    # hash(True) == hash(1): a dict groups them, and NumPy coerces a mixed
    # bool/int key list to one int64 array that groups them the same way.
    keys = np.asarray([True, 1, 0, False])
    assert keys.dtype == np.int64
    results = run_both_paths(ArrayPairs(keys, np.array([1, 2, 4, 8])), "sum")
    assert_all_equal(results)
    assert results["serial"][0] == [(1, 3), (0, 12)]


def test_numpy_array_values_identical():
    # Row values (HADI-sketch-like payloads) must survive grouping on both
    # paths.
    rng = np.random.default_rng(9)
    rows = rng.integers(0, 2**32, size=(40, 4), dtype=np.uint64)
    results = run_both_paths(ArrayPairs(rng.integers(0, 6, 40), rows), "first")
    assert_all_equal(results)
    assert results["serial"][1][1] == "uint64"


def test_sorted_outputs_identical_on_large_random_workload():
    rng = np.random.default_rng(10)
    batch = ArrayPairs(rng.integers(0, 500, 5000), rng.integers(0, 1000, 5000))
    results = run_both_paths(batch, "sum")
    assert_all_equal(results)
    reference = sorted(results["serial"][0])
    for name, (pairs, _, _) in results.items():
        assert sorted(pairs) == reference, name


# ---------------------------------------------------------------------- #
# Randomized sweep against the tuple-path reference
# ---------------------------------------------------------------------- #
def _random_workload(rng, float_values=False):
    """One random structured round: (ArrayPairs, reducer name).

    Samples the whole key space the two paths must agree on: narrow and
    wide int keys (the radix and the pack-sort grouping routes), single-key
    and empty batches, bool keys, string keys, and NaN-free float keys.
    ``float_values`` swaps the integer values for standard-normal floats (a
    tenth of them repeated, so sums see ties).
    """
    family = rng.choice(["int", "wide-int", "single-key", "empty", "bool", "str", "float"])
    size = int(rng.integers(1, 200))
    values = rng.integers(-50, 50, size=size)
    reducer = str(rng.choice(REDUCERS))
    if family == "empty":
        return ArrayPairs(np.zeros(0, np.int64), np.zeros(0, np.int64)), reducer
    if family == "int":
        keys = rng.integers(-10, 25, size=size)
    elif family == "wide-int":
        keys = rng.integers(0, 2**40, size=8)[rng.integers(0, 8, size)]
    elif family == "single-key":
        keys = np.full(size, int(rng.integers(0, 5)))
    elif family == "bool":
        keys = rng.random(size) < 0.5
    elif family == "str":
        keys = np.array(["alpha", "beta", "gamma", "d", "ee"])[rng.integers(0, 5, size)]
    else:  # float
        keys = rng.uniform(-3, 3, size).round(1)
    if float_values:
        values = rng.standard_normal(size)
        values[rng.random(size) < 0.1] = values[0]
    return ArrayPairs(keys, values), reducer


@pytest.mark.parametrize("seed", range(12))
def test_randomized_cross_backend_sweep(seed):
    """Any key family, any reducer: identical output order, dtypes and
    metrics to the tuple-path reference."""
    rng = np.random.default_rng(1000 + seed)
    for _ in range(8):
        batch, reducer = _random_workload(rng)
        assert_all_equal(run_both_paths(batch, reducer))


def _sum_tolerances(batch):
    """Per-group float64 bound on |segment sum - arrival-order sum|.

    Each of two float sums of ``k`` values errs from the exact sum by at most
    ``(k - 1) 2**-53 sum(|v|)``, so they differ by at most twice that.
    Groups are listed in first-occurrence order, grouped like dict keys.
    """
    groups = {}
    for key, value in batch.to_pairs():
        count, magnitude = groups.get(key, (0, 0.0))
        groups[key] = (count + 1, magnitude + abs(value))
    return [2 * (count - 1) * 2.0**-53 * magnitude for count, magnitude in groups.values()]


@pytest.mark.parametrize("seed", range(6))
def test_randomized_float_value_sweep(seed):
    """Float values: first and count match the reference bit for bit; sum
    agrees within the float64 bound fixed in :func:`_sum_tolerances`."""
    rng = np.random.default_rng(2000 + seed)
    for _ in range(8):
        batch, _ = _random_workload(rng, float_values=True)
        for reducer in ("first", "count"):
            assert_all_equal(run_both_paths(batch, reducer))
        results = run_both_paths(batch, "sum")
        (ref_pairs, ref_dtypes, ref_metrics), (pairs, dtypes, metrics) = results["serial"], results["vectorized"]
        assert (dtypes, metrics) == (ref_dtypes, ref_metrics)
        assert _pairs_equal([(k, 0) for k, _ in pairs], [(k, 0) for k, _ in ref_pairs])
        for (_, got), (_, expected), bound in zip(pairs, ref_pairs, _sum_tolerances(batch)):
            assert abs(got - expected) <= bound


def test_float_sums_are_not_added_in_arrival_order():
    # The sum exception is real: reduceat's pairwise summation departs from
    # the arrival-order sum on this workload, within the float64 bound.
    rng = np.random.default_rng(3)
    batch = ArrayPairs(rng.integers(0, 4, 400), rng.standard_normal(400))
    results = run_both_paths(batch, "sum")
    got = dict(results["vectorized"][0])
    expected = dict(results["serial"][0])
    assert got.keys() == expected.keys()
    assert any(got[key] != expected[key] for key in got)
    for key, bound in zip(expected, _sum_tolerances(batch)):
        assert abs(got[key] - expected[key]) <= bound


def _key_family(rng, family, size):
    if family == "radix-int":  # key range below 2**16
        return rng.integers(-300, 300, size)
    if family == "pack-sort-int":  # wide non-negative keys
        return rng.integers(0, 2**40, 25)[rng.integers(0, 25, size)]
    if family == "bool":
        return rng.random(size) < 0.3
    if family == "str":
        return np.array(["alpha", "beta", "gamma", "d", "ee"])[rng.integers(0, 5, size)]
    return rng.uniform(-3, 3, size).round(1)  # NaN-free float


@pytest.mark.parametrize("family", ["radix-int", "pack-sort-int", "bool", "str", "float"])
@pytest.mark.parametrize("reducer", REDUCERS)
def test_every_reducer_identical_over_every_key_family(reducer, family):
    """Each of the four reducers, over each sortable key family (integer keys
    through both fast grouping routes): identical output order, dtypes and
    metrics to the tuple-path reference, scalar and row values alike."""
    rng = np.random.default_rng(4000)
    for size in (1, 2, 300):
        keys = _key_family(rng, family, size)
        if family == "pack-sort-int" and size > 1:
            assert keys.max() - keys.min() >= 2**16 and keys.min() >= 0
        for values in (rng.integers(0, 2**20, size), rng.integers(0, 2**20, (size, 3))):
            if reducer == "sum" and values.ndim == 2:
                continue  # the reference sums scalars only
            assert_all_equal(run_both_paths(ArrayPairs(keys, values), reducer))


# ---------------------------------------------------------------------- #
# ArrayPairs batches
# ---------------------------------------------------------------------- #
def test_array_pairs_identical_across_backends():
    rng = np.random.default_rng(11)
    batch = ArrayPairs(rng.integers(0, 40, 600), rng.integers(0, 1000, 600))
    for reducer in REDUCERS:
        assert_all_equal(run_both_paths(batch, reducer))


def test_array_pairs_matches_flattened_input():
    """The segment path equals a plain dict group-by over the flattened pairs."""
    rng = np.random.default_rng(12)
    batch = ArrayPairs(rng.integers(0, 25, 300), rng.integers(0, 9, 300))
    expected = {}
    for key, value in batch.to_pairs():
        expected[key] = expected.get(key, 0) + value
    engine = MREngine()
    out = engine.run_structured_round(batch, "sum")
    assert out.to_pairs() == list(expected.items())
    assert engine.metrics.shuffled_pairs == 300


def test_array_pairs_validation():
    with pytest.raises(ValueError):
        ArrayPairs(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        ArrayPairs(np.zeros(3), np.zeros(2))


def test_array_pairs_rejects_scalar_values():
    # A 0-d values array has no length: the same ValueError as a length
    # mismatch, naming both shapes.
    with pytest.raises(ValueError, match=r"same length, got shapes \(1,\) and \(\)"):
        ArrayPairs(np.array([1]), np.array(5))
    with pytest.raises(ValueError, match=r"same length, got shapes \(3,\) and \(2,\)"):
        ArrayPairs(np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------- #
# Constraint checking behaves identically on both paths
# ---------------------------------------------------------------------- #
def assert_violation_enforced_and_recorded(path, batch, **limits):
    with on_path(path):
        with pytest.raises(MRConstraintViolation):
            MREngine(MRModel(enforce=True, **limits)).run_structured_round(batch, "sum")
        recording = MRModel(enforce=False, **limits)
        out = MREngine(recording).run_structured_round(batch, "sum")
    with on_path("serial"):
        assert out.to_pairs() == MREngine().run_structured_round(batch, "sum").to_pairs()
    assert len(recording.violations) == 1


@pytest.mark.parametrize("path", PATHS)
def test_local_memory_violation_raises_on_every_backend(path):
    batch = ArrayPairs(np.zeros(5, dtype=np.int64), np.arange(5))
    assert_violation_enforced_and_recorded(path, batch, local_memory=2)


@pytest.mark.parametrize("path", PATHS)
def test_global_memory_violation_raises_on_every_backend(path):
    batch = ArrayPairs(np.arange(10), np.arange(10))
    assert_violation_enforced_and_recorded(path, batch, global_memory=3)


def test_backends_module_is_gone():
    # Rounds have one execution path: the module that selected one is gone.
    with pytest.raises(ModuleNotFoundError):
        import repro.mapreduce.backends  # noqa: F401
