"""Structured-round suite: reducer lookup, segment reducers, reference equality.

Structured rounds must be bit-compatible with the tuple-path reference of
``mr_reference.py``: for any workload and any of the four reducers, the
segment pass returns the same output arrays (same dtype, same
first-occurrence order) and meters the same :class:`MRMetrics`.
``"serial"`` names the reference side (every round under ``tuple_path()``),
``"vectorized"`` the production side.  These tests enforce that, plus the
reducer lookup and key contracts and the equivalence of the MR algorithms
built on the engine.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from mr_reference import PATHS, PER_KEY, on_path  # rootless test layout: pytest puts this dir on sys.path
from repro.baselines.bfs_diameter import mr_bfs_diameter
from repro.baselines.hadi import hadi_diameter
from repro.generators import barabasi_albert_graph, mesh_graph
from repro.mapreduce.engine import MREngine
from repro.mapreduce.structured import ArrayPairs, execute_segments, grouping_order

REDUCERS = ("bitwise_or", "count", "first", "sum")


def run_structured_on_all(batch, reducer):
    """One structured round per path; returns {name: (keys, values, dtypes, metrics)}."""
    results = {}
    for name in PATHS:
        engine = MREngine()
        with on_path(name):
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
# Reducer lookup
# ---------------------------------------------------------------------- #
def test_builtin_reducers_registered():
    # The reference keys its per-key functions by the same four names.
    assert sorted(PER_KEY) == list(REDUCERS)
    batch = ArrayPairs(np.array([3, 1, 3]), np.array([4, 2, 8]))
    for name in REDUCERS:
        assert execute_segments(batch, name).output.keys.tolist() == [3, 1], name


def test_unknown_reducer_names_rejected():
    # The lookup is exact and lists the four reducers; min, max and argmin
    # are not among them, and neither is a per-key callable.
    batch = ArrayPairs(np.array([0, 1]), np.array([1, 2]))
    for name in ("min", "max", "argmin", "not-a-reducer", "SUM", lambda key, values: values):
        with pytest.raises(ValueError, match=r"reducers are \['bitwise_or', 'count', 'first', 'sum'\]"):
            MREngine().run_structured_round(batch, name)


# ---------------------------------------------------------------------- #
# Segment reducers against the reference
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["sum", "count", "first"])
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


def test_structured_output_matches_classic_reference_round():
    """Structured output flattened == a dict group-by calling the reference."""
    rng = np.random.default_rng(6)
    batch = ArrayPairs(rng.integers(0, 30, 500), rng.integers(0, 100, 500))
    groups = {}
    for key, value in batch.to_pairs():
        groups.setdefault(key, []).append(value)
    for name in REDUCERS:
        expected = [(key, PER_KEY[name](values)) for key, values in groups.items()]
        engine = MREngine()
        structured = engine.run_structured_round(batch, name)
        assert structured.to_pairs() == expected, name
        assert engine.metrics.shuffled_pairs == 500, name
        assert engine.metrics.max_reducer_input == max(map(len, groups.values())), name


def object_keys(items):
    """A 1-d object key array holding ``items`` whole (tuples included)."""
    keys = np.empty(len(items), dtype=object)
    for index, item in enumerate(items):
        keys[index] = item
    return keys


@pytest.mark.parametrize(
    "keys",
    [
        object_keys([(0, 1), (2, 3), (0, 1)]),
        object_keys(["3", 3, None]),
        np.array([1 + 2j, 3j, 1 + 2j]),
        np.array(["2015-06-13", "2015-06-14", "NaT"], dtype="datetime64[D]"),
        np.array([0.5, np.nan, 0.5]),
    ],
    ids=["tuple-object", "mixed-object", "complex", "datetime", "nan-float"],
)
@pytest.mark.parametrize("name", REDUCERS)
def test_unsortable_keys_rejected(keys, name):
    # One sort cannot group these key arrays; the error names the dtype.
    with pytest.raises(ValueError, match=re.escape(f"keys of dtype {keys.dtype} cannot be grouped")):
        MREngine().run_structured_round(ArrayPairs(keys, np.arange(keys.size)), name)


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
# Float keys (NaN-free) group by sort
# ---------------------------------------------------------------------- #
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
    for path in PATHS:
        with on_path(path):
            result = mr_bfs_diameter(graph, seed=11)
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
            assert snapshot == reference, path
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
    merged = MREngine().run_structured_round(batch, "bitwise_or")

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
    for path in PATHS:
        with on_path(path):
            result = hadi_diameter(graph, seed=12, num_registers=8)
        snapshot = (result.estimate, result.neighborhood_function, result.metrics.as_dict())
        if reference is None:
            reference = snapshot
        else:
            assert snapshot == reference, path
