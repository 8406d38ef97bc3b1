"""Micro-benchmarks of the library's hot paths.

These use pytest-benchmark's statistical timing (multiple rounds) on fixed
workloads so that performance regressions in the vectorized primitives —
frontier expansion, BFS, decomposition, quotient construction, HADI sketch
propagation — are visible over time.
"""

from __future__ import annotations

import pytest

from repro.baselines.hadi import hadi_diameter
from repro.baselines.mpx import mpx_decomposition
from repro.core.cluster import cluster
from repro.core.growth_engine import GrowthEngine
from repro.core.quotient import build_quotient_graph, quotient_diameter
from repro.generators import barabasi_albert_graph, mesh_graph, road_network_graph
from repro.graph.traversal import bfs_distances, multi_source_bfs


@pytest.fixture(scope="module")
def mesh():
    return mesh_graph(60, 60)


@pytest.fixture(scope="module")
def social():
    return barabasi_albert_graph(4000, 6, seed=1)


@pytest.fixture(scope="module")
def road():
    return road_network_graph(60, 60, seed=2)


def test_bench_bfs_mesh(benchmark, mesh):
    dist = benchmark(bfs_distances, mesh, 0)
    assert dist.max() == 118


def test_bench_bfs_social(benchmark, social):
    dist = benchmark(bfs_distances, social, 0)
    assert dist.max() >= 2


def test_bench_multi_source_bfs(benchmark, mesh):
    sources = list(range(0, mesh.num_nodes, 400))
    result = benchmark(multi_source_bfs, mesh, sources)
    assert result.distances.max() >= 0


def test_bench_growth_step(benchmark, mesh):
    def grow_five_steps():
        growth = GrowthEngine(mesh)
        growth.add_centers(list(range(0, mesh.num_nodes, 120)))
        growth.grow_steps(5)
        return growth.num_covered

    covered = benchmark(grow_five_steps)
    assert covered > 0


def test_bench_cluster_mesh(benchmark, mesh):
    result = benchmark(cluster, mesh, 8, seed=0)
    assert result.num_clusters > 1


def test_bench_cluster_social(benchmark, social):
    result = benchmark(cluster, social, 8, seed=0)
    assert result.num_clusters > 1


def test_bench_mpx_road(benchmark, road):
    result = benchmark(mpx_decomposition, road, 0.3, seed=0)
    assert result.num_clusters > 1


def test_bench_quotient_build(benchmark, mesh):
    clustering = cluster(mesh, 8, seed=3)
    quotient = benchmark(build_quotient_graph, mesh, clustering, weighted=True)
    assert quotient.num_nodes == clustering.num_clusters


def test_bench_quotient_diameter(benchmark, mesh):
    clustering = cluster(mesh, 8, seed=4)
    quotient = build_quotient_graph(mesh, clustering, weighted=True)
    value = benchmark(quotient_diameter, quotient)
    assert value > 0


def test_bench_hadi_few_iterations(benchmark, social):
    result = benchmark.pedantic(
        lambda: hadi_diameter(social, seed=5, num_registers=8, max_iterations=3),
        rounds=1,
        iterations=1,
    )
    assert result.iterations <= 3
