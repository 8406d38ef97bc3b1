"""Structured-round suite: registry, segment reducers, cross-backend equality.

Structured rounds must be bit-compatible with the serial tuple path: for any
workload and any registered reducer, every backend returns the same output
arrays (same dtype, same first-occurrence order) and meters the same
:class:`MRMetrics`.  These tests enforce that, plus the registry contract,
the :class:`ArrayMapper` protocol, the persistent process pool, and the
driver-level equivalence of the MR drivers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bfs_diameter import mr_bfs_diameter
from repro.baselines.hadi import hadi_diameter
from repro.core.mr_native import mr_cluster_native
from repro.generators import barabasi_albert_graph, mesh_graph
from repro.mapreduce.backends import (
    ArrayPairs,
    ProcessBackend,
    fork_available,
)
from repro.mapreduce.engine import MREngine
from repro.mapreduce.structured import (
    ArrayMapper,
    StructuredReducer,
    available_structured_reducers,
    get_structured_reducer,
    grouping_order,
    register_structured_reducer,
    resolve_structured_reducer,
    segment_eligible,
)

BACKENDS = ("serial", "vectorized", "process")


def run_structured_on_all(batch, reducer, *, mapper=None, num_shards=3):
    """One structured round per backend; returns {name: (keys, values, dtypes, metrics)}."""
    results = {}
    for name in BACKENDS:
        with MREngine(backend=name, num_shards=num_shards) as engine:
            out = engine.run_structured_round(batch, reducer, mapper=mapper)
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
    # Registered by repro.core.mr_native on import (custom-reducer extension).
    assert "cluster-claim" in names


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
    with MREngine(backend="vectorized") as engine:
        out = engine.run_structured_round(batch, "argmin")
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


def test_emit_mask_reducer_identical():
    # cluster-claim drops covered groups: exercises the emit-mask path.
    rng = np.random.default_rng(5)
    size = 400
    tags = rng.integers(0, 2, size)
    cluster_ids = np.where(tags == 0, rng.integers(-1, 3, size), rng.integers(0, 5, size))
    dists = rng.integers(0, 7, size)
    batch = ArrayPairs(rng.integers(0, 40, size), np.column_stack([tags, cluster_ids, dists]))
    results = run_structured_on_all(batch, "cluster-claim")
    assert_structured_identical(results)


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
        with MREngine(backend=name, num_shards=2) as engine:
            with pytest.raises(ValueError):
                engine.run_structured_round(batch, "min")


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
# ArrayMapper protocol
# ---------------------------------------------------------------------- #
def test_array_mapper_object_and_callable():
    class Doubler(ArrayMapper):
        def map_batch(self, batch):
            return ArrayPairs(
                np.concatenate([batch.keys, batch.keys]),
                np.concatenate([batch.values, batch.values * 2]),
            )

    batch = ArrayPairs(np.array([0, 1, 0]), np.array([1, 2, 3]))
    with MREngine(backend="vectorized") as engine:
        out = engine.run_structured_round(batch, "sum", mapper=Doubler())
    assert out.to_pairs() == [(0, 12), (1, 6)]
    assert engine.metrics.shuffled_pairs == 6

    with MREngine(backend="serial") as engine:
        out = engine.run_structured_round(
            batch, "sum", mapper=lambda b: ArrayPairs(b.keys, b.values + 1)
        )
    assert out.to_pairs() == [(0, 6), (1, 3)]


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
# Persistent process pool (reused across rounds, closed on teardown)
# ---------------------------------------------------------------------- #
@pytest.mark.skipif(not fork_available(), reason="pool forking requires fork")
def test_process_pool_reused_across_rounds_and_closed():
    backend = ProcessBackend(num_shards=2)
    engine = MREngine(backend=backend)
    batch = ArrayPairs(np.arange(200) % 17, np.arange(200))
    engine.run_structured_round(batch, "sum")
    workers_after_first = backend.pool.pids
    assert workers_after_first, "structured round should fork the pool"
    engine.run_structured_round(batch, "min")
    assert backend.pool.pids == workers_after_first, "pool must be reused across rounds"
    engine.close()
    assert backend.pool.pids == frozenset()
    # Closed backends lazily re-create the pool when used again.
    out = engine.run_structured_round(batch, "count")
    assert len(out) == 17
    engine.close()


@pytest.mark.skipif(not fork_available(), reason="pool forking requires fork")
def test_engine_context_manager_closes_pool():
    with MREngine(backend="process", num_shards=2) as engine:
        engine.run_structured_round(ArrayPairs(np.arange(50) % 5, np.arange(50)), "max")
        backend = engine.backend
        assert backend.pool.pids
    assert backend.pool.pids == frozenset()


class OffsetSum(StructuredReducer):
    """Group sum plus an offset held in a closure, so it cannot be pickled."""

    name = "test-offset-sum"
    values_ndim = 1

    def __init__(self, offset):
        self.shift = lambda total: total + offset

    def segment_reduce(self, sorted_values, starts, ends):
        return self.shift(np.add.reduceat(sorted_values, starts)), None

    def reference(self, key, values):
        yield (key, self.shift(sum(values)))


def test_unpicklable_reducer_runs_in_process():
    # A reducer that cannot reach pool workers runs in the driver, even on an
    # shm-sized round, with the serial reference's output.
    batch = ArrayPairs(np.arange(120) % 7, np.arange(120))
    backend = ProcessBackend(num_shards=3, shm_min_pairs=1)
    backend.pool.map = lambda func, tasks: pytest.fail("an unpicklable reducer reached the pool")
    with MREngine(backend=backend) as engine:
        out = engine.run_structured_round(batch, OffsetSum(13))
    with MREngine(backend="serial") as engine:
        assert out.to_pairs() == engine.run_structured_round(batch, OffsetSum(13)).to_pairs()


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
        result = mr_bfs_diameter(graph, seed=11, backend=backend, num_shards=2)
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
    with MREngine(backend="vectorized") as engine:
        merged = engine.run_structured_round(batch, "bitwise_or")

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
        result = hadi_diameter(graph, seed=12, num_registers=8, backend=backend, num_shards=2)
        snapshot = (result.estimate, result.neighborhood_function, result.metrics.as_dict())
        if reference is None:
            reference = snapshot
        else:
            assert snapshot == reference, backend


def test_mr_cluster_native_structured_beats_nothing_but_matches():
    # Bit-identical clustering and metrics across the tuple path (serial)
    # and the segment paths — the structured-round acceptance invariant.
    graph = barabasi_albert_graph(400, 4, seed=6)
    reference = None
    for backend in BACKENDS:
        clustering, engine = mr_cluster_native(graph, 2, seed=13, backend=backend, num_shards=2)
        snapshot = (
            clustering.assignment.tolist(),
            clustering.centers.tolist(),
            clustering.distance.tolist(),
            engine.metrics.as_dict(),
        )
        if reference is None:
            reference = snapshot
        else:
            assert snapshot == reference, backend
