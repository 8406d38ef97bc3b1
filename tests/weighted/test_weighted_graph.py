"""Unit tests for the weighted graph substrate and traversals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import mesh_graph, path_graph
from repro.weighted.traversal import (
    dijkstra,
    multi_source_dijkstra,
    weighted_double_sweep,
)
from repro.weighted.wgraph import WeightedCSRGraph


@pytest.fixture
def weighted_path():
    """Path 0-1-2-3-4 with weights 1, 2, 3, 4."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    return WeightedCSRGraph.from_edges(edges, weights=[1.0, 2.0, 3.0, 4.0])


@pytest.fixture
def weighted_mesh():
    graph = mesh_graph(10, 10)
    rng = np.random.default_rng(3)
    return WeightedCSRGraph.random_weights(graph, low=1.0, high=5.0, rng=rng)


class TestConstruction:
    def test_counts_and_weights(self, weighted_path):
        assert weighted_path.num_nodes == 5
        assert weighted_path.num_edges == 4
        assert weighted_path.total_weight() == pytest.approx(10.0)

    def test_symmetric_weights(self, weighted_path):
        nbrs, weights = weighted_path.neighbors_with_weights(1)
        lookup = dict(zip(nbrs.tolist(), weights.tolist()))
        assert lookup == {0: 1.0, 2: 2.0}

    def test_duplicate_edges_keep_min_weight(self):
        g = WeightedCSRGraph.from_edges([(0, 1), (1, 0)], weights=[5.0, 2.0])
        _, weights = g.neighbors_with_weights(0)
        assert weights.tolist() == [2.0]

    def test_self_loops_removed(self):
        g = WeightedCSRGraph.from_edges([(0, 0), (0, 1)], weights=[1.0, 3.0])
        assert g.num_edges == 1

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedCSRGraph.from_edges([(0, 1)], weights=[0.0])
        with pytest.raises(ValueError):
            WeightedCSRGraph.from_edges([(0, 1)], weights=[-1.0])
        with pytest.raises(ValueError):
            WeightedCSRGraph.from_edges([(0, 1)], weights=[1.0, 2.0])

    def test_from_unit_graph(self, mesh8):
        g = WeightedCSRGraph.from_unit_graph(mesh8, weight=2.0)
        assert g.num_edges == mesh8.num_edges
        assert g.total_weight() == pytest.approx(2.0 * mesh8.num_edges)
        with pytest.raises(ValueError):
            WeightedCSRGraph.from_unit_graph(mesh8, weight=0.0)

    def test_random_weights_range(self, mesh8):
        g = WeightedCSRGraph.random_weights(mesh8, low=2.0, high=3.0, rng=np.random.default_rng(0))
        assert g.weights.min() >= 2.0
        assert g.weights.max() <= 3.0
        with pytest.raises(ValueError):
            WeightedCSRGraph.random_weights(mesh8, low=0.0, high=1.0)

    def test_unweighted_skeleton(self, weighted_mesh):
        skeleton = weighted_mesh.unweighted()
        assert skeleton.num_edges == weighted_mesh.num_edges

    def test_neighbor_blocks_with_weights(self, weighted_path):
        src, dst, w = weighted_path.neighbor_blocks_with_weights(np.asarray([1, 3]))
        assert src.size == dst.size == w.size == 4
        assert set(dst.tolist()) == {0, 2, 2, 4} | {0, 2, 4}

    def test_base_accessors_keep_their_arity(self, weighted_path):
        # Weighted graphs flow through unweighted code paths (clustering
        # validation, MR-native drivers), so the inherited signatures hold.
        assert weighted_path.neighbors(1).tolist() == [0, 2]
        src, dst = weighted_path.neighbor_blocks(np.asarray([1]))
        assert src.size == dst.size == 2

    def test_repr(self, weighted_path):
        assert "num_nodes=5" in repr(weighted_path)


class TestDijkstra:
    def test_weighted_path_distances(self, weighted_path):
        dist = dijkstra(weighted_path, 0)
        assert dist.tolist() == [0.0, 1.0, 3.0, 6.0, 10.0]

    def test_matches_networkx(self, weighted_mesh):
        import networkx as nx

        nxg = nx.Graph()
        edges, weights = weighted_mesh.edges()
        for (u, v), w in zip(edges, weights):
            nxg.add_edge(int(u), int(v), weight=float(w))
        expected = nx.single_source_dijkstra_path_length(nxg, 0)
        dist = dijkstra(weighted_mesh, 0)
        for node, d in expected.items():
            assert dist[node] == pytest.approx(d)

    def test_matches_scipy(self, weighted_mesh):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

        matrix = csr_matrix(
            (weighted_mesh.weights, weighted_mesh.indices, weighted_mesh.indptr),
            shape=(weighted_mesh.num_nodes, weighted_mesh.num_nodes),
        )
        expected = scipy_dijkstra(matrix, directed=False, indices=7)
        assert np.allclose(dijkstra(weighted_mesh, 7), expected)

    def test_multi_source_is_min(self, weighted_mesh):
        sources = [0, 55, 99]
        combined = multi_source_dijkstra(weighted_mesh, sources)
        stacked = np.stack([dijkstra(weighted_mesh, s) for s in sources])
        assert np.allclose(combined.distances, stacked.min(axis=0))
        # Owner is consistent: distance via the owner equals the combined distance.
        for v in (3, 42, 77):
            owner = int(combined.sources[v])
            assert dijkstra(weighted_mesh, owner)[v] == pytest.approx(combined.distances[v])

    def test_unreachable_infinite(self):
        g = WeightedCSRGraph.from_edges([(0, 1)], num_nodes=3, weights=[1.0])
        dist = dijkstra(g, 0)
        assert np.isinf(dist[2])

    def test_source_out_of_range(self, weighted_path):
        with pytest.raises(IndexError):
            dijkstra(weighted_path, 99)


class TestEccentricityAndSweep:
    def test_double_sweep_exact_on_path(self, weighted_path):
        lower, a, b = weighted_double_sweep(weighted_path, start=2)
        assert lower == pytest.approx(10.0)
        assert {a, b} == {0, 4}

    def test_double_sweep_lower_bound(self, weighted_mesh):
        import networkx as nx

        nxg = nx.Graph()
        edges, weights = weighted_mesh.edges()
        for (u, v), w in zip(edges, weights):
            nxg.add_edge(int(u), int(v), weight=float(w))
        true_diameter = max(
            max(lengths.values())
            for _, lengths in nx.all_pairs_dijkstra_path_length(nxg)
        )
        lower, _, _ = weighted_double_sweep(weighted_mesh, rng=np.random.default_rng(1))
        assert lower <= true_diameter + 1e-9

    def test_empty_graph(self):
        g = WeightedCSRGraph.from_edges([], num_nodes=0, weights=[])
        assert weighted_double_sweep(g) == (0.0, -1, -1)
