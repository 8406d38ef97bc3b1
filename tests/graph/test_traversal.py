"""Unit tests for BFS traversals, cross-checked against networkx."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.traversal import (
    UNREACHED,
    bfs_distances,
    double_sweep,
    multi_source_bfs,
)
from tests.conftest import to_networkx


class TestSingleSourceBFS:
    def test_path_distances(self, path10):
        dist = bfs_distances(path10, 0)
        assert dist.tolist() == list(range(10))

    def test_matches_networkx(self, ba_graph):
        import networkx as nx

        nxg = to_networkx(ba_graph)
        expected = nx.single_source_shortest_path_length(nxg, 0)
        dist = bfs_distances(ba_graph, 0)
        for node, d in expected.items():
            assert dist[node] == d

    def test_matches_networkx_mesh(self, mesh8):
        import networkx as nx

        nxg = to_networkx(mesh8)
        expected = nx.single_source_shortest_path_length(nxg, 27)
        dist = bfs_distances(mesh8, 27)
        for node, d in expected.items():
            assert dist[node] == d

    def test_unreachable_marked(self, disconnected_graph):
        dist = bfs_distances(disconnected_graph, 0)
        assert np.any(dist == UNREACHED)
        assert dist[0] == 0

    def test_source_out_of_range(self, path10):
        with pytest.raises(IndexError):
            bfs_distances(path10, 99)

    def test_levels_equal_eccentricity(self, mesh8):
        result = multi_source_bfs(mesh8, [0])
        assert result.num_levels == result.distances.max() == 14


class TestMultiSourceBFS:
    def test_sources_at_distance_zero(self, mesh8):
        result = multi_source_bfs(mesh8, [0, 63])
        assert result.distances[0] == 0
        assert result.distances[63] == 0
        assert result.sources[0] == 0
        assert result.sources[63] == 63

    def test_distance_is_min_over_sources(self, mesh8):
        sources = [0, 63]
        result = multi_source_bfs(mesh8, sources)
        individual = np.stack([bfs_distances(mesh8, s) for s in sources])
        assert np.array_equal(result.distances, individual.min(axis=0))

    def test_owner_consistent_with_distance(self, mesh20):
        sources = [0, 210, 399]
        result = multi_source_bfs(mesh20, sources)
        for v in range(mesh20.num_nodes):
            owner = int(result.sources[v])
            assert bfs_distances(mesh20, owner)[v] == result.distances[v]

    def test_empty_sources(self, mesh8):
        result = multi_source_bfs(mesh8, [])
        assert np.all(result.distances == UNREACHED)
        assert result.num_levels == 0

    def test_duplicate_sources_deduplicated(self, path10):
        result = multi_source_bfs(path10, [0, 0, 0])
        assert result.distances[9] == 9

    def test_source_out_of_range(self, path10):
        with pytest.raises(IndexError):
            multi_source_bfs(path10, [0, 42])

    def test_partition_into_voronoi_cells(self, mesh8):
        """Every node is owned by one of the sources and owners form a partition."""
        sources = [0, 7, 56, 63]
        result = multi_source_bfs(mesh8, sources)
        assert set(np.unique(result.sources).tolist()) == set(sources)
        assert np.all(result.distances >= 0)


class TestEccentricityAndDoubleSweep:
    def test_path_eccentricity(self, path10):
        assert bfs_distances(path10, 0).max() == 9
        assert bfs_distances(path10, 5).max() == 5

    def test_double_sweep_exact_on_path(self, path10):
        lower, a, b = double_sweep(path10)  # starts at node 0 without an rng
        assert lower == 9
        assert {a, b} == {0, 9}

    def test_double_sweep_lower_bound(self, ba_graph):
        import networkx as nx

        true_diameter = nx.diameter(to_networkx(ba_graph))
        lower, _, _ = double_sweep(ba_graph)
        assert lower <= true_diameter

    def test_double_sweep_with_rng(self, mesh8):
        rng = np.random.default_rng(0)
        lower, _, _ = double_sweep(mesh8, rng=rng)
        assert lower == 14  # exact on meshes

    def test_double_sweep_empty(self):
        assert double_sweep(CSRGraph.empty(0)) == (0, -1, -1)
