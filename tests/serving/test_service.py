"""Tests for the GraphService batched query plane."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.oracle import build_distance_oracle
from repro.core.pipeline import DecompositionPipeline, PipelineConfig
from repro.generators import attach_weights, barabasi_albert_graph, mesh_graph
from repro.graph.traversal import bfs_distances, dijkstra
from repro.serving import GraphService
from repro.serving.service import SERVICE_METHODS, resolve_method
from tests.graph.kernel_reference import eccentricities_loop


@pytest.fixture(scope="module")
def mesh_service():
    return GraphService.build(mesh_graph(15, 15), seed=0)


@pytest.fixture(scope="module")
def weighted_service():
    graph = attach_weights(mesh_graph(12, 12), "uniform", seed=3)
    return GraphService.build(graph, seed=5)


class TestResolveMethod:
    def test_auto_unweighted(self, mesh8):
        assert resolve_method(mesh8, "auto") == "cluster2"

    def test_auto_weighted(self):
        graph = attach_weights(mesh_graph(6, 6), "uniform", seed=0)
        assert resolve_method(graph, "auto") == "weighted"

    def test_explicit_passthrough(self, mesh8):
        assert resolve_method(mesh8, "cluster") == "cluster"

    def test_unknown_rejected(self, mesh8):
        with pytest.raises(ValueError, match="unknown service method"):
            resolve_method(mesh8, "mpx")


class TestBuild:
    def test_empty_graph_rejected(self):
        from repro.graph.csr import CSRGraph

        with pytest.raises(ValueError):
            GraphService.build(CSRGraph.empty(0))

    @pytest.mark.parametrize("method", SERVICE_METHODS)
    def test_every_method_serves_a_weighted_graph(self, method):
        """The graph decides the metric: every listed method bounds Dijkstra truth."""
        graph = attach_weights(mesh_graph(12, 12), "uniform", seed=3)
        service = GraphService.build(graph, tau=2, seed=0, method=method)
        assert service.is_weighted and service.oracle.clustering.is_weighted
        rng = np.random.default_rng(7)
        for s in rng.choice(graph.num_nodes, size=4, replace=False):
            targets = rng.integers(0, graph.num_nodes, size=50)
            lower, upper = service.query_distance(np.full(targets.size, s), targets)
            truth = dijkstra(graph, int(s))[targets]
            assert np.all(lower <= truth + 1e-9) and np.all(truth <= upper + 1e-9)

    def test_stats_and_repr(self, mesh_service):
        stats = mesh_service.stats()
        assert stats["num_nodes"] == 225
        assert stats["method"] == "cluster2"
        assert stats["num_clusters"] == mesh_service.num_clusters
        assert len(stats["snapshot_key"]) == 20
        assert "GraphService" in repr(mesh_service)

    def test_timings_recorded(self, mesh_service):
        assert "decompose" in mesh_service.timings
        assert "oracle" in mesh_service.timings

    def test_shares_pipeline_decomposition(self, mesh20):
        """A pipeline's clustering needs no second decomposition: the oracle
        built on it answers exactly like a service that decomposed itself."""
        pipeline = DecompositionPipeline(
            mesh20, PipelineConfig(method="cluster2", tau=4, seed=9)
        )
        clustering = pipeline.decompose()
        shared = build_distance_oracle(mesh20, clustering)
        fresh = GraphService.build(mesh20, tau=4, seed=9)
        assert shared.clustering is clustering
        assert np.array_equal(shared.assignment, fresh.assignment)
        assert np.array_equal(shared.upper_matrix, fresh.oracle.upper_matrix)
        rng = np.random.default_rng(0)
        us = rng.integers(0, mesh20.num_nodes, size=500)
        vs = rng.integers(0, mesh20.num_nodes, size=500)
        for a, b in zip(shared.query_batch(us, vs), fresh.query_distance(us, vs)):
            assert np.array_equal(a, b)

    def test_oracle_accepts_pipeline_clustering(self, mesh20):
        """build_distance_oracle(graph, clustering) builds on the clustering it is given."""
        pipeline = DecompositionPipeline(
            mesh20, PipelineConfig(method="cluster2", tau=4, seed=9)
        )
        clustering = pipeline.decompose()
        oracle = build_distance_oracle(mesh20, clustering)
        assert oracle.clustering is clustering

    def test_graph_oracle_node_mismatch_rejected(self, mesh8, mesh_service):
        with pytest.raises(ValueError, match="different node sets"):
            GraphService(mesh8, mesh_service.oracle, method="cluster2", tau=2)


class TestQueryDistance:
    def test_batched_equals_scalar_sweep(self, mesh_service):
        """The batch plane is a pure execution-strategy change: bit-identical
        to per-pair scalar queries across a random sweep."""
        n = mesh_service.num_nodes
        rng = np.random.default_rng(1)
        us = rng.integers(0, n, size=2_000)
        vs = rng.integers(0, n, size=2_000)
        # Force the interesting regimes into the sweep: u == v and
        # same-cluster pairs.
        us[:50] = vs[:50]
        same = np.flatnonzero(
            mesh_service.assignment[us] == mesh_service.assignment[vs]
        )
        assert same.size > 0
        lower, upper = mesh_service.query_distance(us, vs)
        for i in range(us.size):
            lo, up = mesh_service.oracle.query(int(us[i]), int(vs[i]))
            assert lower[i] == lo
            assert upper[i] == up

    def test_bounds_sandwich_true_distance_unweighted(self, mesh_service):
        graph = mesh_service.graph
        rng = np.random.default_rng(2)
        for s in rng.choice(graph.num_nodes, size=4, replace=False):
            true_dist = bfs_distances(graph, int(s))
            targets = rng.integers(0, graph.num_nodes, size=50)
            lower, upper = mesh_service.query_distance(
                np.full(targets.size, int(s)), targets
            )
            assert np.all(lower <= true_dist[targets])
            assert np.all(true_dist[targets] <= upper)

    def test_bounds_sandwich_true_distance_weighted(self, weighted_service):
        graph = weighted_service.graph
        rng = np.random.default_rng(4)
        for s in rng.choice(graph.num_nodes, size=3, replace=False):
            true_dist = dijkstra(graph, int(s))
            targets = rng.integers(0, graph.num_nodes, size=40)
            lower, upper = weighted_service.query_distance(
                np.full(targets.size, int(s)), targets
            )
            assert np.all(lower <= true_dist[targets] + 1e-9)
            assert np.all(true_dist[targets] <= upper + 1e-9)

    def test_identical_nodes_zero(self, mesh_service):
        lower, upper = mesh_service.query_distance([7, 0], [7, 0])
        assert np.array_equal(lower, [0.0, 0.0])
        assert np.array_equal(upper, [0.0, 0.0])

    def test_empty_batch(self, mesh_service):
        lower, upper = mesh_service.query_distance([], [])
        assert lower.shape == (0,)
        assert upper.shape == (0,)

    def test_out_of_range_rejected(self, mesh_service):
        with pytest.raises(IndexError, match="out of range"):
            mesh_service.query_distance([0], [mesh_service.num_nodes])
        with pytest.raises(IndexError, match="-1"):
            mesh_service.query_distance([-1], [0])

    def test_shape_mismatch_rejected(self, mesh_service):
        with pytest.raises(ValueError, match="same length"):
            mesh_service.query_distance([0, 1], [2])

    def test_non_integer_rejected(self, mesh_service):
        with pytest.raises(TypeError, match="integer"):
            mesh_service.query_distance([0.5], [1.5])

    def test_two_dimensional_rejected(self, mesh_service):
        with pytest.raises(ValueError, match="1-d"):
            mesh_service.query_distance([[0, 1]], [[2, 3]])


class TestQuerySameCluster:
    def test_matches_assignment(self, mesh_service):
        rng = np.random.default_rng(3)
        us = rng.integers(0, mesh_service.num_nodes, size=300)
        vs = rng.integers(0, mesh_service.num_nodes, size=300)
        got = mesh_service.query_same_cluster(us, vs)
        expected = mesh_service.assignment[us] == mesh_service.assignment[vs]
        assert got.dtype == np.bool_
        assert np.array_equal(got, expected)

    def test_self_pairs_true(self, mesh_service):
        nodes = np.arange(0, mesh_service.num_nodes, 17)
        assert np.all(mesh_service.query_same_cluster(nodes, nodes))

    def test_shape_mismatch_rejected(self, mesh_service):
        with pytest.raises(ValueError, match="same length"):
            mesh_service.query_same_cluster([0], [1, 2])


class TestQueryEccentricity:
    def test_bounds_sandwich_true_eccentricity_unweighted(self, mesh_service):
        graph = mesh_service.graph
        nodes = np.arange(graph.num_nodes)
        true_ecc = eccentricities_loop(graph.indptr, graph.indices, nodes)
        lower, upper = mesh_service.query_eccentricity(nodes)
        assert np.all(lower <= true_ecc)
        assert np.all(true_ecc <= upper)

    def test_bounds_sandwich_true_eccentricity_weighted(self, weighted_service):
        graph = weighted_service.graph
        nodes = np.arange(graph.num_nodes)
        true_ecc = np.asarray([dijkstra(graph, int(u)).max() for u in nodes])
        lower, upper = weighted_service.query_eccentricity(nodes)
        assert np.all(lower <= true_ecc + 1e-9)
        assert np.all(true_ecc <= upper + 1e-9)

    def test_out_of_range_rejected(self, mesh_service):
        with pytest.raises(IndexError):
            mesh_service.query_eccentricity([mesh_service.num_nodes])


class TestQueryCenters:
    def test_center_of_own_cluster(self, mesh_service):
        nodes = np.arange(mesh_service.num_nodes)
        centers, dist = mesh_service.query_centers(nodes)
        expected = mesh_service.centers[mesh_service.assignment[nodes]]
        assert np.array_equal(centers, expected)
        assert np.array_equal(dist, mesh_service.center_distance[nodes])

    def test_centers_are_own_centers(self, mesh_service):
        """A cluster center is its own center at distance 0."""
        centers, dist = mesh_service.query_centers(mesh_service.centers)
        assert np.array_equal(centers, mesh_service.centers)
        assert np.all(dist == 0.0)

    def test_distance_is_realizable_upper_bound(self, mesh_service):
        """The served center distance upper-bounds the true distance."""
        graph = mesh_service.graph
        nodes = np.arange(graph.num_nodes)
        centers, dist = mesh_service.query_centers(nodes)
        for c in np.unique(centers):
            true_dist = bfs_distances(graph, int(c))
            members = nodes[centers == c]
            assert np.all(true_dist[members] <= dist[centers == c])

    def test_cluster_radii_cover_members(self, mesh_service):
        radii = mesh_service.cluster_radii
        assert np.all(mesh_service.center_distance <= radii[mesh_service.assignment])


class TestAnswer:
    """Mixed batches: validation once, kinds by code, vs read only for pairs."""

    def test_columns_per_kind(self, mesh_service):
        svc = mesh_service
        kinds = np.asarray([0, 1, 2, 3], dtype=np.int8)
        a, b = svc.answer(kinds, [3, 3, 40, 40], [90, 4, -1, -1])
        lower, upper = svc.query_distance([3], [90])
        ecc_lower, ecc_upper = svc.query_eccentricity([40])
        center, center_distance = svc.query_centers([40])
        assert a.tolist() == [lower[0], float(svc.query_same_cluster([3], [4])[0]), ecc_lower[0], center[0]]
        assert b.tolist() == [upper[0], 0.0, ecc_upper[0], center_distance[0]]

    def test_unknown_kind_names_code_and_position(self, mesh_service):
        with pytest.raises(ValueError, match="unknown query kind code 7 at position 1"):
            mesh_service.answer(np.asarray([0, 7, 2]), [0, 1, 2], [1, -1, -1])
        with pytest.raises(ValueError, match="code -1 at position 0"):
            mesh_service.answer(np.asarray([-1], dtype=np.int8), [0], [1])

    def test_vs_checked_only_for_pair_kinds(self, mesh_service):
        n = mesh_service.num_nodes
        mesh_service.answer([2, 3], [0, 1], [-1, n + 5])
        with pytest.raises(IndexError, match=f"vs {n} out of range"):
            mesh_service.answer([2, 1], [0, 1], [-1, n])
        with pytest.raises(IndexError, match="us -1 out of range"):
            mesh_service.answer([2], [-1], [-1])

    def test_misaligned_and_malformed_rejected(self, mesh_service):
        with pytest.raises(ValueError, match="same length"):
            mesh_service.answer([0, 0], [1, 2], [3])
        with pytest.raises(TypeError, match="integer"):
            mesh_service.answer([0.0], [1], [2])
        with pytest.raises(ValueError, match="1-d"):
            mesh_service.answer([[0]], [[1]], [[2]])


class TestBatchedVsScalarWeighted:
    def test_batched_equals_scalar_sweep(self, weighted_service):
        n = weighted_service.num_nodes
        rng = np.random.default_rng(6)
        us = rng.integers(0, n, size=800)
        vs = rng.integers(0, n, size=800)
        us[:20] = vs[:20]
        lower, upper = weighted_service.query_distance(us, vs)
        for i in range(us.size):
            lo, up = weighted_service.oracle.query(int(us[i]), int(vs[i]))
            assert lower[i] == lo
            assert upper[i] == up

    def test_same_cluster_lower_is_min_weight(self, weighted_service):
        assert weighted_service.oracle.same_cluster_lower == pytest.approx(
            float(weighted_service.graph.weights.min())
        )


class TestFacade:
    def test_top_level_reexport(self):
        import repro

        assert repro.GraphService is GraphService
        assert repro.__all__[0] == "GraphService"

    def test_serving_all_exports_resolve(self):
        import repro.serving as serving

        for name in serving.__all__:
            assert getattr(serving, name) is not None

    def test_build_on_scale_free_graph(self):
        graph = barabasi_albert_graph(300, 3, seed=7)
        service = GraphService.build(graph, seed=1)
        lower, upper = service.query_distance([0, 5], [299, 250])
        assert np.all(lower <= upper)
