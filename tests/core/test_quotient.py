"""Unit tests for quotient-graph construction and quotient diameters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import cluster
from repro.core.pipeline import DecompositionPipeline
from repro.core.quotient import (
    QuotientGraph,
    build_quotient_graph,
    quotient_apsp,
    quotient_diameter,
)
from repro.core.clustering import Clustering
from repro.generators import barabasi_albert_graph, path_graph, road_network_graph
from repro.graph import kernels
from repro.graph.components import is_connected
from repro.graph.csr import CSRGraph


def scipy_apsp(quotient: QuotientGraph) -> np.ndarray:
    """Reference APSP through scipy.sparse.csgraph (not a dependency of src/)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = quotient.num_nodes
    data = (
        quotient.weights
        if quotient.weights is not None
        else np.ones(quotient.graph.indices.size, dtype=np.float64)
    )
    matrix = csr_matrix((data, quotient.graph.indices, quotient.graph.indptr), shape=(n, n))
    return shortest_path(
        matrix, method="D", directed=False, unweighted=not quotient.is_weighted
    )


def per_source_apsp(quotient: QuotientGraph) -> np.ndarray:
    """Reference APSP: one single-source delta_stepping per cluster.

    The unweighted flavour runs on unit weights, whose distances are hops.
    """
    n = quotient.num_nodes
    indptr, indices = quotient.graph.indptr, quotient.graph.indices
    weights = quotient.weights if quotient.is_weighted else np.ones(indices.size)
    matrix = np.empty((n, n))
    for source in range(n):
        matrix[source], _ = kernels.delta_stepping(
            indptr, indices, weights, np.asarray([source], dtype=np.int64)
        )
    return matrix


def reference_diameter(matrix: np.ndarray) -> float:
    if not np.isfinite(matrix).all():
        raise ValueError("quotient graph is disconnected; diameter is infinite")
    return float(matrix.max())


def float_weighted_quotient() -> QuotientGraph:
    """A quotient of the weighted decomposition: non-integer arc weights."""
    graph = road_network_graph(30, 30, seed=3, weights="uniform")
    pipe = DecompositionPipeline(graph, method="weighted", target_clusters=100, seed=0)
    quotient = pipe.quotient(weighted=True)
    assert np.any(quotient.weights != np.round(quotient.weights))
    return quotient


@pytest.fixture
def mesh_clustering(mesh20):
    return cluster(mesh20, 4, seed=0)


class TestBuildQuotient:
    def test_node_count_equals_clusters(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering)
        assert q.num_nodes == mesh_clustering.num_clusters
        assert not q.is_weighted

    def test_connected_quotient_of_connected_graph(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering)
        assert is_connected(q.graph)

    def test_edges_correspond_to_crossing_edges(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering)
        assignment = mesh_clustering.assignment
        expected_pairs = set()
        for u, v in mesh20.edges():
            cu, cv = int(assignment[u]), int(assignment[v])
            if cu != cv:
                expected_pairs.add((min(cu, cv), max(cu, cv)))
        got_pairs = set((min(int(a), int(b)), max(int(a), int(b))) for a, b in q.graph.edges())
        assert got_pairs == expected_pairs

    def test_weighted_quotient_weights_positive(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering, weighted=True)
        assert q.is_weighted
        assert np.all(q.weights >= 1)

    def test_weight_definition(self, mesh20, mesh_clustering):
        """Weight = min over crossing edges of dist(a, c_A) + 1 + dist(b, c_B)."""
        q = build_quotient_graph(mesh20, mesh_clustering, weighted=True)
        assignment = mesh_clustering.assignment
        dist = mesh_clustering.distance
        # Recompute one arbitrary quotient edge's weight by brute force.
        a, b = q.graph.edges()[0]
        crossing = []
        for u, v in mesh20.edges():
            cu, cv = int(assignment[u]), int(assignment[v])
            if {cu, cv} == {int(a), int(b)}:
                crossing.append(int(dist[u]) + int(dist[v]) + 1)
        assert q.arc_weight(int(a), int(b)) == min(crossing)

    def test_arc_weight_missing_edge(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering, weighted=True)
        # Find a non-adjacent pair of clusters (exists unless quotient is complete).
        adj = {tuple(sorted(map(int, e))) for e in q.graph.edges()}
        k = q.num_nodes
        missing = None
        for i in range(k):
            for j in range(i + 1, k):
                if (i, j) not in adj:
                    missing = (i, j)
                    break
            if missing:
                break
        if missing is not None:
            with pytest.raises(KeyError):
                q.arc_weight(*missing)

    def test_single_cluster_quotient_empty(self, mesh8):
        single = Clustering(
            num_nodes=mesh8.num_nodes,
            assignment=np.zeros(mesh8.num_nodes, dtype=np.int64),
            centers=np.asarray([0], dtype=np.int64),
            distance=np.asarray(
                [int(d) for d in np.maximum(0, np.arange(mesh8.num_nodes) % 3)], dtype=np.int64
            ),
        )
        q = build_quotient_graph(mesh8, single)
        assert q.num_nodes == 1
        assert q.num_edges == 0

    def test_size_mismatch_rejected(self, mesh8, mesh_clustering):
        with pytest.raises(ValueError):
            build_quotient_graph(mesh8, mesh_clustering)


class TestQuotientDiameter:
    """The running max over tiles equals the max of both reference matrices."""

    def assert_exact(self, q):
        expected = reference_diameter(per_source_apsp(q))
        assert quotient_diameter(q) == expected
        assert reference_diameter(scipy_apsp(q)) == expected

    def test_unweighted_methods_agree(self, mesh20, mesh_clustering):
        self.assert_exact(build_quotient_graph(mesh20, mesh_clustering))

    def test_weighted_methods_agree(self, mesh20, mesh_clustering):
        self.assert_exact(build_quotient_graph(mesh20, mesh_clustering, weighted=True))

    def test_float_weighted_quotient_exact(self):
        self.assert_exact(float_weighted_quotient())

    def test_singleton_clusters_recover_graph_diameter(self, path10):
        singles = Clustering.singleton_clustering(path10.num_nodes)
        q = build_quotient_graph(path10, singles)
        assert quotient_diameter(q) == 9

    def test_single_node_quotient(self):
        assert quotient_diameter(QuotientGraph(graph=CSRGraph.empty(1))) == 0.0
        weighted = QuotientGraph(graph=CSRGraph.empty(1), weights=np.zeros(0))
        assert quotient_diameter(weighted) == 0.0

    def test_empty_quotient_rejected(self):
        with pytest.raises(ValueError):
            quotient_diameter(QuotientGraph(graph=CSRGraph.empty(0)))

    def test_disconnected_quotient_rejected(self):
        graph = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        for q in (QuotientGraph(graph=graph), QuotientGraph(graph=graph, weights=np.ones(2))):
            with pytest.raises(ValueError, match="disconnected"):
                quotient_diameter(q)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_large_quotient_spans_several_tiles(self, weighted):
        """300 clusters: more rows than one msbfs batch or weighted tile."""
        big = path_graph(300)
        q = build_quotient_graph(big, Clustering.singleton_clustering(300), weighted=weighted)
        assert quotient_diameter(q) == 299.0
        disconnected = QuotientGraph(
            graph=CSRGraph.from_edges([(0, 1)], num_nodes=300),
            weights=np.ones(2) if weighted else None,
        )
        with pytest.raises(ValueError, match="disconnected"):
            quotient_diameter(disconnected)


class TestQuotientApsp:
    """quotient_apsp replaced scipy in the oracle build; pin bit-compat."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_scipy_on_mesh_quotient(self, mesh20, mesh_clustering, weighted):
        q = build_quotient_graph(mesh20, mesh_clustering, weighted=weighted)
        got = quotient_apsp(q)
        assert got.dtype == np.float64
        assert np.array_equal(got, scipy_apsp(q))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_scipy_on_random_graphs(self, seed, weighted):
        graph = barabasi_albert_graph(250, 3, seed=seed)
        clustering = cluster(graph, 4, seed=seed)
        q = build_quotient_graph(graph, clustering, weighted=weighted)
        assert np.array_equal(quotient_apsp(q), scipy_apsp(q))
        assert np.array_equal(quotient_apsp(q), per_source_apsp(q))

    def test_float_weights_match_both_references(self):
        q = float_weighted_quotient()
        matrix = quotient_apsp(q)
        assert np.array_equal(matrix, per_source_apsp(q))
        assert np.array_equal(matrix, scipy_apsp(q))
        # Row a sums a path from a, row b the same path from b: rows cannot
        # be mirrored from columns.
        assert not np.array_equal(matrix, matrix.T)

    def test_symmetric_zero_diagonal(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering, weighted=True)
        matrix = quotient_apsp(q)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_disconnected_pairs_are_inf(self):
        q = QuotientGraph(graph=CSRGraph.from_edges([(0, 1)], num_nodes=3))
        matrix = quotient_apsp(q)
        assert matrix[0, 1] == 1.0
        assert np.isinf(matrix[0, 2]) and np.isinf(matrix[2, 1])
        assert np.array_equal(matrix, scipy_apsp(q))

    def test_empty_and_singleton(self):
        assert quotient_apsp(QuotientGraph(graph=CSRGraph.empty(0))).shape == (0, 0)
        single = quotient_apsp(QuotientGraph(graph=CSRGraph.empty(1)))
        assert np.array_equal(single, [[0.0]])
