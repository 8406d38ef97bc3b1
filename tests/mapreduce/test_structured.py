"""Structured-round suite: registry, segment reducers, cross-backend equality.

Structured rounds must be bit-compatible with the serial tuple path: for any
workload and any registered reducer, every backend returns the same output
arrays (same dtype, same first-occurrence order) and meters the same
:class:`MRMetrics`.  These tests enforce that, plus the registry contract
and the driver-level equivalence of the MR drivers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bfs_diameter import mr_bfs_diameter
from repro.baselines.hadi import hadi_diameter
from repro.generators import barabasi_albert_graph, mesh_graph
from repro.mapreduce.backends import ArrayPairs
from repro.mapreduce.engine import MREngine
from repro.mapreduce.structured import (
    StructuredReducer,
    available_structured_reducers,
    get_structured_reducer,
    grouping_order,
    register_structured_reducer,
    resolve_structured_reducer,
    segment_eligible,
)

BACKENDS = ("serial", "vectorized")


def run_structured_on_all(batch, reducer):
    """One structured round per backend; returns {name: (keys, values, dtypes, metrics)}."""
    results = {}
    for name in BACKENDS:
        engine = MREngine(backend=name)
        out = engine.run_structured_round(batch, reducer)
        results[name] = (
            out.keys.tolist(),
            out.values.tolist(),
            (str(out.keys.dtype), str(out.values.dtype)),
            engine.metrics.as_dict(),
        )
    return results


def assert_structured_identical(results):
    reference = results["serial"]
    for name, result in results.items():
        assert result == reference, f"{name} structured round differs from serial"


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
def test_builtin_reducers_registered():
    names = available_structured_reducers()
    for name in ("min", "max", "sum", "count", "first", "argmin", "bitwise_or"):
        assert name in names


def test_registry_rejects_duplicates_and_unknown_names():
    class Dummy(StructuredReducer):
        name = "min"  # collides with the builtin

        def segment_reduce(self, sorted_values, starts, ends):
            return sorted_values[starts], None

        def reference(self, key, values):
            yield (key, values[0])

    with pytest.raises(ValueError):
        register_structured_reducer(Dummy())
    with pytest.raises(ValueError):
        get_structured_reducer("not-a-reducer")
    with pytest.raises(TypeError):
        register_structured_reducer(object())  # type: ignore[arg-type]


def test_resolve_structured_reducer():
    assert resolve_structured_reducer("sum").name == "sum"
    instance = get_structured_reducer("min")
    assert resolve_structured_reducer(instance) is instance
    # A plain per-key callable is rejected with the registered names listed.
    with pytest.raises(TypeError, match="registered: .*'sum'"):
        resolve_structured_reducer(lambda k, vs: [(k, len(vs))])  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        resolve_structured_reducer(123)  # type: ignore[arg-type]


# ---------------------------------------------------------------------- #
# Built-in segment reducers, cross-backend
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["min", "max", "sum", "count", "first"])
@pytest.mark.parametrize("seed", [0, 1])
def test_scalar_reducers_identical_across_backends(name, seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 500))
    batch = ArrayPairs(
        rng.integers(-20, 40, size=size), rng.integers(-1000, 1000, size=size)
    )
    results = run_structured_on_all(batch, name)
    assert_structured_identical(results)
    assert results["serial"][3]["shuffled_pairs"] == size


@pytest.mark.parametrize("seed", [0, 1])
def test_argmin_composite_rows_identical(seed):
    rng = np.random.default_rng(10 + seed)
    size = int(rng.integers(1, 400))
    rows = np.column_stack(
        [rng.integers(0, 4, size), rng.integers(0, 6, size), rng.integers(0, 9, size)]
    )
    batch = ArrayPairs(rng.integers(0, 30, size), rows)
    results = run_structured_on_all(batch, "argmin")
    assert_structured_identical(results)


def test_argmin_matches_python_min_semantics():
    # Lexicographic row minimum with ties resolved by arrival order.
    batch = ArrayPairs(
        np.array([5, 5, 5, 9]),
        np.array([[2, 7], [1, 9], [1, 3], [0, 0]]),
    )
    out = MREngine(backend="vectorized").run_structured_round(batch, "argmin")
    assert out.keys.tolist() == [5, 9]
    assert out.values.tolist() == [[1, 3], [0, 0]]


def test_bitwise_or_sketch_rows_identical():
    rng = np.random.default_rng(3)
    sketches = rng.integers(0, 2**60, size=(300, 4), dtype=np.uint64)
    batch = ArrayPairs(rng.integers(0, 25, 300), sketches)
    results = run_structured_on_all(batch, "bitwise_or")
    assert_structured_identical(results)
    assert results["serial"][2][1] == "uint64"


def test_bitwise_or_scalar_values_identical():
    rng = np.random.default_rng(4)
    batch = ArrayPairs(rng.integers(0, 10, 200), rng.integers(0, 2**30, 200))
    results = run_structured_on_all(batch, "bitwise_or")
    assert_structured_identical(results)


class EvenSums(StructuredReducer):
    """Group sums, emitted only for the groups whose sum is even."""

    name = "test-even-sums"
    values_ndim = 1

    def segment_reduce(self, sorted_values, starts, ends):
        sums = np.add.reduceat(sorted_values, starts)
        return sums, sums % 2 == 0

    def reference(self, key, values):
        if sum(values) % 2 == 0:
            yield (key, sum(values))


def test_emit_mask_reducer_identical():
    # EvenSums drops odd groups: exercises the emit-mask path.
    rng = np.random.default_rng(5)
    batch = ArrayPairs(rng.integers(0, 40, 400), rng.integers(0, 7, 400))
    results = run_structured_on_all(batch, EvenSums())
    assert_structured_identical(results)
    assert 0 < len(results["serial"][0]) < 40


def test_empty_and_single_key_batches():
    empty = ArrayPairs(np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
    results = run_structured_on_all(empty, "first")
    assert_structured_identical(results)
    assert results["serial"][3]["rounds"] == 1
    assert results["serial"][3]["shuffled_pairs"] == 0

    single = ArrayPairs(np.full(64, 7, dtype=np.int64), np.arange(64, dtype=np.int64))
    results = run_structured_on_all(single, "sum")
    assert_structured_identical(results)
    assert results["serial"][0] == [7]
    assert results["serial"][3]["max_reducer_input"] == 64


def test_values_ndim_validation_identical_on_all_backends():
    batch = ArrayPairs(np.array([0, 1]), np.array([[1, 2], [3, 4]]))
    for name in BACKENDS:
        with pytest.raises(ValueError):
            MREngine(backend=name).run_structured_round(batch, "min")


def test_structured_output_matches_classic_reference_round():
    """Structured output flattened == a dict group-by calling the reference."""
    rng = np.random.default_rng(6)
    batch = ArrayPairs(rng.integers(0, 30, 500), rng.integers(0, 100, 500))
    groups = {}
    for key, value in batch.to_pairs():
        groups.setdefault(key, []).append(value)
    for name in ("min", "max", "sum", "count", "first"):
        reducer = get_structured_reducer(name)
        expected = [pair for key, values in groups.items() for pair in reducer.reference(key, values)]
        engine = MREngine(backend="vectorized")
        structured = engine.run_structured_round(batch, reducer)
        assert structured.to_pairs() == expected, name
        assert engine.metrics.shuffled_pairs == 500, name
        assert engine.metrics.max_reducer_input == max(map(len, groups.values())), name


def test_string_keys_and_nan_float_keys_fall_back_identically():
    rng = np.random.default_rng(8)
    words = np.array(["a", "bb", "ccc", "a", "bb"] * 40)
    batch = ArrayPairs(words, rng.integers(0, 9, words.size))
    results = run_structured_on_all(batch, "sum")
    assert_structured_identical(results)

    keys = rng.uniform(0, 4, 50).round(1)
    keys[::7] = np.nan  # NaN defeats argsort grouping: reference fallback
    nan_batch = ArrayPairs(keys, rng.integers(0, 9, 50))
    results = run_structured_on_all(nan_batch, "count")
    for name, result in results.items():
        assert result[1] == results["serial"][1], name
        assert result[3] == results["serial"][3], name


# ---------------------------------------------------------------------- #
# grouping_order fast paths
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "keys",
    [
        np.zeros(0, dtype=np.int64),
        np.array([4], dtype=np.int64),
        np.random.default_rng(0).integers(0, 50, 1000),  # 16-bit radix path
        np.random.default_rng(1).integers(-40, 40, 500),  # negative, radix path
        np.random.default_rng(2).integers(0, 2**40, 1000),  # pack-sort path
        np.random.default_rng(3).integers(-(2**40), 2**40, 700),  # wide + negative
        np.array(["b", "a", "b", "c"] * 10),  # non-integer fallback
    ],
)
def test_grouping_order_matches_stable_argsort(keys):
    expected = np.argsort(keys, kind="stable")
    assert np.array_equal(grouping_order(keys), expected)


# ---------------------------------------------------------------------- #
# Float keys on the argsort fast path (NaN-free only)
# ---------------------------------------------------------------------- #
def test_float_keys_take_argsort_fast_path():
    assert segment_eligible(np.array([1.5, 2.5, 1.5, -0.0, 0.0]))
    assert not segment_eligible(np.array([1.5, np.nan]))
    assert not segment_eligible(np.array([1.5, None], dtype=object))


def test_float_key_workloads_identical_across_backends():
    rng = np.random.default_rng(9)
    batch = ArrayPairs(rng.uniform(-5, 5, 400).round(2), rng.integers(0, 50, 400))
    results = run_structured_on_all(batch, "sum")
    assert_structured_identical(results)
    assert results["serial"][2][0] == "float64"


# ---------------------------------------------------------------------- #
# Driver-level equivalence: the ported MR consumers
# ---------------------------------------------------------------------- #
def test_mr_bfs_diameter_identical_across_backends():
    graph = mesh_graph(15, 15)
    reference = None
    for backend in BACKENDS:
        result = mr_bfs_diameter(graph, seed=11, backend=backend)
        snapshot = (
            result.estimate,
            result.lower_bound,
            result.upper_bound,
            result.num_levels,
            result.metrics.as_dict(),
        )
        if reference is None:
            reference = snapshot
        else:
            assert snapshot == reference, backend
    assert reference[4]["max_reducer_input"] > 0  # rounds are executed, not charged


def test_hadi_sketch_round_matches_neighbor_reduce_kernel():
    """The structured bitwise_or round == an independent in-memory neighbour OR.

    HADI's sketch propagation used to reduce each node's neighbour sketches
    in memory (one ``bitwise_or.reduceat`` per adjacency slice); that
    reduction, inlined here, is the reference the MR round is pinned to.
    """
    graph = barabasi_albert_graph(300, 4, seed=8)
    rng = np.random.default_rng(0)
    sketches = rng.integers(0, 2**60, size=(graph.num_nodes, 4), dtype=np.uint64)

    nodes = np.arange(graph.num_nodes, dtype=np.int64)
    owners = np.repeat(nodes, np.diff(graph.indptr))
    batch = ArrayPairs(
        np.concatenate((nodes, owners)),
        np.concatenate((sketches, sketches[graph.indices])),
    )
    merged = MREngine(backend="vectorized").run_structured_round(batch, "bitwise_or")

    expected = sketches.copy()
    has_neighbors = np.diff(graph.indptr) > 0
    segment_starts = graph.indptr[:-1][has_neighbors]
    expected[has_neighbors] |= np.bitwise_or.reduceat(sketches[graph.indices], segment_starts, axis=0)
    result = np.empty_like(sketches)
    result[merged.keys] = merged.values
    assert np.array_equal(result, expected)


def test_hadi_identical_across_backends():
    graph = barabasi_albert_graph(250, 3, seed=5)
    reference = None
    for backend in BACKENDS:
        result = hadi_diameter(graph, seed=12, num_registers=8, backend=backend)
        snapshot = (result.estimate, result.neighborhood_function, result.metrics.as_dict())
        if reference is None:
            reference = snapshot
        else:
            assert snapshot == reference, backend
