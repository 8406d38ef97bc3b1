"""Unit tests for weighted graphs and weighted traversals on the CSR core."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import cluster
from repro.core.pipeline import DecompositionPipeline
from repro.core.quotient import build_quotient_graph
from repro.generators import attach_weights, mesh_graph
from repro.graph import kernels
from repro.graph.builders import add_path, disjoint_union
from repro.graph.csr import CSRGraph
from repro.graph.ingest import ingest_edge_list
from repro.graph.io import load_edge_list, save_edge_list
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.graph.traversal import dijkstra, double_sweep


@pytest.fixture
def weighted_path():
    """Path 0-1-2-3-4 with weights 1, 2, 3, 4."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    return CSRGraph.from_edges(edges, weights=[1.0, 2.0, 3.0, 4.0])


@pytest.fixture
def weighted_mesh():
    graph = mesh_graph(10, 10)
    rng = np.random.default_rng(3)
    return attach_weights(graph, "uniform", low=1.0, high=5.0, seed=rng)


def multi_source_dijkstra(graph, sources):
    return kernels.delta_stepping(graph.indptr, graph.indices, graph.weights, np.unique(sources))


class TestConstruction:
    def test_counts_and_weights(self, weighted_path):
        assert weighted_path.num_nodes == 5
        assert weighted_path.num_edges == 4
        assert weighted_path.is_weighted
        assert weighted_path.edge_list()[1].sum() == pytest.approx(10.0)

    def test_symmetric_weights(self, weighted_path):
        assert weighted_path.edge_weight(1, 0) == weighted_path.edge_weight(0, 1) == 1.0
        assert weighted_path.edge_weight(1, 2) == weighted_path.edge_weight(2, 1) == 2.0

    def test_duplicate_edges_keep_min_weight(self):
        g = CSRGraph.from_edges([(0, 1), (1, 0)], weights=[5.0, 2.0])
        assert g.weights.tolist() == [2.0, 2.0]

    def test_self_loops_removed(self):
        g = CSRGraph.from_edges([(0, 0), (0, 1)], weights=[1.0, 3.0])
        assert g.num_edges == 1

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(0, 1)], weights=[0.0])
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(0, 1)], weights=[-1.0])
        with pytest.raises(ValueError):
            CSRGraph.from_edges([(0, 1)], weights=[1.0, 2.0])

    def test_from_unit_graph(self, mesh8):
        # method="weighted" lifts an unweighted input to unit edge weights.
        g = DecompositionPipeline(mesh8, method="weighted", tau=1, seed=0).graph
        assert type(g) is CSRGraph and g.is_weighted
        assert np.array_equal(g.indices, mesh8.indices)
        assert np.all(g.weights == 1.0)

    def test_random_weights_range(self, mesh8):
        g = attach_weights(mesh8, "uniform", low=2.0, high=3.0, seed=np.random.default_rng(0))
        assert g.weights.min() >= 2.0
        assert g.weights.max() <= 3.0
        with pytest.raises(ValueError):
            attach_weights(mesh8, "uniform", low=0.0, high=1.0)

    def test_unweighted_skeleton(self, weighted_mesh):
        skeleton = weighted_mesh.unweighted()
        assert skeleton.num_edges == weighted_mesh.num_edges
        assert not skeleton.is_weighted

    def test_base_accessors_keep_their_arity(self, weighted_path):
        # Weighted graphs flow through every unweighted code path (clustering
        # validation, MR accounting), so the accessors do not change shape.
        assert weighted_path.neighbors(1).tolist() == [0, 2]
        src, dst = weighted_path.neighbor_blocks(np.asarray([1]))
        assert src.size == dst.size == 2
        assert weighted_path.edges().shape == (4, 2)

    def test_repr(self, weighted_path):
        assert "num_nodes=5" in repr(weighted_path)


class TestDijkstra:
    def test_weighted_path_distances(self, weighted_path):
        dist = dijkstra(weighted_path, 0)
        assert dist.tolist() == [0.0, 1.0, 3.0, 6.0, 10.0]

    def test_matches_networkx(self, weighted_mesh):
        import networkx as nx

        nxg = nx.Graph()
        edges, weights = weighted_mesh.edge_list()
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
        distances, owners = multi_source_dijkstra(weighted_mesh, sources)
        stacked = np.stack([dijkstra(weighted_mesh, s) for s in sources])
        assert np.allclose(distances, stacked.min(axis=0))
        # Owner is consistent: distance via the owner equals the combined distance.
        for v in (3, 42, 77):
            owner = int(owners[v])
            assert dijkstra(weighted_mesh, owner)[v] == pytest.approx(distances[v])

    def test_unreachable_infinite(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=3, weights=[1.0])
        dist = dijkstra(g, 0)
        assert np.isinf(dist[2])

    def test_source_out_of_range(self, weighted_path):
        with pytest.raises(IndexError):
            dijkstra(weighted_path, 99)
        with pytest.raises(IndexError):
            dijkstra(weighted_path, -1)


class TestEccentricityAndSweep:
    def test_double_sweep_exact_on_path(self, weighted_path):
        lower, a, b = double_sweep(weighted_path)
        assert lower == pytest.approx(10.0)
        assert {a, b} == {0, 4}

    def test_double_sweep_lower_bound(self, weighted_mesh):
        import networkx as nx

        nxg = nx.Graph()
        edges, weights = weighted_mesh.edge_list()
        for (u, v), w in zip(edges, weights):
            nxg.add_edge(int(u), int(v), weight=float(w))
        true_diameter = max(
            max(lengths.values())
            for _, lengths in nx.all_pairs_dijkstra_path_length(nxg)
        )
        lower, _, _ = double_sweep(weighted_mesh, rng=np.random.default_rng(1))
        assert isinstance(lower, float)
        assert lower <= true_diameter + 1e-9

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], num_nodes=0, weights=[])
        assert double_sweep(g) == (0.0, -1, -1)


class TestOneGraphType:
    """Weighted input never yields a subclass: ``weights`` alone marks the metric."""

    def test_every_producer_returns_exactly_csrgraph(self, weighted_mesh, tmp_path):
        save_edge_list(weighted_mesh, tmp_path / "g.txt")
        produced = {
            "attach_weights": weighted_mesh,
            "load_snapshot": load_snapshot(save_snapshot(weighted_mesh, tmp_path / "g.snap")),
            "load_edge_list": load_edge_list(tmp_path / "g.txt")[0],
            "ingest_edge_list": ingest_edge_list(tmp_path / "g.txt", weighted=True),
            "add_path": add_path(weighted_mesh, 3, 0),
            "disjoint_union": disjoint_union([weighted_mesh, weighted_mesh]),
            "build_quotient_graph": build_quotient_graph(
                weighted_mesh, cluster(weighted_mesh, 2, seed=0), weighted=True
            ),
        }
        for name, graph in produced.items():
            assert type(graph) is CSRGraph, name
            assert graph.is_weighted, name
        for name in ("load_snapshot", "load_edge_list", "ingest_edge_list"):
            assert produced[name] == weighted_mesh, name
            assert np.array_equal(produced[name].weights, weighted_mesh.weights), name

    def test_weighted_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.weighted  # noqa: F401
