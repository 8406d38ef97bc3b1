"""Unit tests for the weighted decomposition and its applications.

On a weighted graph the core entry points (``cluster``, ``kcenter``,
``gonzalez_kcenter``, ``estimate_diameter``) run the §7 weighted variants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.gonzalez import gonzalez_kcenter, random_centers_kcenter
from repro.core.cluster import cluster
from repro.core.diameter import estimate_diameter
from repro.core.growth_engine import GrowthEngine
from repro.core.kcenter import evaluate_centers, kcenter
from repro.core.pipeline import DecompositionPipeline
from repro.core.quotient import build_quotient_graph
from repro.generators import attach_weights, mesh_graph, path_graph, road_network_graph
from repro.graph import kernels
from repro.graph.csr import CSRGraph


@pytest.fixture
def weighted_mesh():
    return attach_weights(mesh_graph(14, 14), "uniform", low=1.0, high=4.0, seed=np.random.default_rng(5))


@pytest.fixture
def weighted_road():
    return attach_weights(
        road_network_graph(20, 20, seed=6), "uniform", low=1.0, high=9.0, seed=np.random.default_rng(6)
    )


def unit_weighted(graph: CSRGraph) -> CSRGraph:
    return CSRGraph(indptr=graph.indptr, indices=graph.indices, weights=np.ones(graph.indices.size))


def nearest_center_distances(graph: CSRGraph, centers) -> np.ndarray:
    """Exact multi-source Dijkstra distances to the nearest of ``centers``."""
    return kernels.delta_stepping(graph.indptr, graph.indices, graph.weights, np.unique(centers))[0]


def exact_weighted_diameter(graph: CSRGraph) -> float:
    """Brute-force weighted diameter for small test graphs."""
    best = 0.0
    for v in range(graph.num_nodes):
        dist = nearest_center_distances(graph, [v])
        finite = dist[np.isfinite(dist)]
        best = max(best, float(finite.max()))
    return best


def weighted_growth(graph: CSRGraph) -> GrowthEngine:
    """The weighted growth loop: the shared engine, which claims by min weight
    on a weighted graph."""
    assert graph.is_weighted
    return GrowthEngine(graph)


class TestWeightedGrowth:
    def test_single_center_hop_layers(self):
        graph = unit_weighted(path_graph(6))
        growth = weighted_growth(graph)
        growth.add_centers([0])
        while growth.num_uncovered:
            if growth.grow_step() == 0:
                break
        assert growth.distance.tolist() == list(range(6))
        assert growth.weighted_distance.tolist() == [float(i) for i in range(6)]

    def test_lightest_claim_wins(self):
        # Node 2 is reachable from center 0 (weight 10) and center 3 (weight 1)
        # in the same round: it must join the lighter cluster.
        graph = CSRGraph.from_edges([(0, 2), (3, 2), (0, 1), (3, 4)], weights=[10.0, 1.0, 1.0, 1.0])
        growth = weighted_growth(graph)
        growth.add_centers([0, 3])
        growth.grow_step()
        assert growth.assignment[2] == growth.assignment[3]
        assert growth.weighted_distance[2] == pytest.approx(1.0)

    def test_out_of_range_center(self, weighted_mesh):
        growth = weighted_growth(weighted_mesh)
        with pytest.raises(IndexError):
            growth.add_centers([10_000])

    def test_to_clustering_requires_cover(self, weighted_mesh):
        growth = weighted_growth(weighted_mesh)
        growth.add_centers([0])
        with pytest.raises(RuntimeError):
            growth.to_clustering()


class TestWeightedCluster:
    @pytest.mark.parametrize("tau", [1, 2, 4])
    def test_valid_partition(self, weighted_mesh, tau):
        clustering = cluster(weighted_mesh, tau, seed=0)
        clustering.validate(weighted_mesh)
        assert clustering.cluster_sizes().sum() == weighted_mesh.num_nodes

    def test_hop_radius_bounds_rounds(self, weighted_road):
        clustering = cluster(weighted_road, 2, seed=1)
        assert clustering.max_radius <= clustering.growth_steps
        assert clustering.weighted_radius >= clustering.max_radius * 1.0 - 1e-9

    def test_weighted_radius_upper_bounds_hop_radius_times_min_weight(self, weighted_mesh):
        clustering = cluster(weighted_mesh, 2, seed=2)
        assert clustering.is_weighted
        # every edge weighs at least 1, so weighted distance >= hop distance
        assert np.all(clustering.weighted_distance + 1e-9 >= clustering.distance)

    def test_deterministic(self, weighted_mesh):
        a = cluster(weighted_mesh, 2, seed=3)
        b = cluster(weighted_mesh, 2, seed=3)
        assert np.array_equal(a.assignment, b.assignment)

    def test_invalid_tau(self, weighted_mesh):
        with pytest.raises(ValueError):
            cluster(weighted_mesh, 0)

    def test_more_tau_more_clusters_smaller_radius(self, weighted_road):
        coarse = cluster(weighted_road, 1, seed=4)
        fine = cluster(weighted_road, 16, seed=4)
        assert fine.num_clusters >= coarse.num_clusters
        assert fine.weighted_radius <= coarse.weighted_radius + 1e-9

    def test_summary_and_members(self, weighted_mesh):
        clustering = cluster(weighted_mesh, 2, seed=5)
        summary = clustering.summary()
        assert summary["num_clusters"] == clustering.num_clusters
        assert summary["weighted_radius"] == round(clustering.weighted_radius, 3)
        members = clustering.members(0)
        assert np.all(clustering.assignment[members] == 0)
        with pytest.raises(IndexError):
            clustering.members(clustering.num_clusters)


class TestWeightedKCenter:
    def test_radius_is_exact_objective(self, weighted_mesh):
        result = kcenter(weighted_mesh, 8, seed=0)
        exact = nearest_center_distances(weighted_mesh, result.centers)
        assert result.radius == float(exact.max())
        assert np.array_equal(result.distance, exact)
        assert result.k <= 8

    def test_tracks_gonzalez(self, weighted_road):
        ours = kcenter(weighted_road, 10, seed=1)
        greedy = gonzalez_kcenter(weighted_road, 10, seed=1)
        assert ours.radius <= 6 * greedy.radius

    def test_k_at_least_n(self, weighted_mesh):
        result = kcenter(weighted_mesh, weighted_mesh.num_nodes + 5, seed=2)
        assert result.radius == 0.0

    def test_invalid_inputs(self, weighted_mesh):
        with pytest.raises(ValueError):
            kcenter(weighted_mesh, 0)
        with pytest.raises(ValueError):
            gonzalez_kcenter(weighted_mesh, 0)

    def test_gonzalez_radius_decreases_with_k(self, weighted_road):
        r2 = gonzalez_kcenter(weighted_road, 2, seed=3).radius
        r10 = gonzalez_kcenter(weighted_road, 10, seed=3).radius
        assert r10 <= r2


class TestWeightedDiameter:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sandwich(self, weighted_mesh, seed):
        true_diameter = exact_weighted_diameter(weighted_mesh)
        estimate = estimate_diameter(weighted_mesh, tau=2, seed=seed)
        assert estimate.lower_bound <= true_diameter + 1e-9
        assert estimate.upper_bound >= true_diameter - 1e-9
        assert estimate.contains(true_diameter)

    def test_sandwich_on_road(self, weighted_road):
        true_diameter = exact_weighted_diameter(weighted_road)
        estimate = estimate_diameter(weighted_road, tau=4, seed=2)
        assert estimate.lower_bound <= true_diameter + 1e-9 <= estimate.upper_bound + 2e-9

    def test_reuse_clustering(self, weighted_mesh):
        clustering = cluster(weighted_mesh, 2, seed=3)
        estimate = estimate_diameter(weighted_mesh, clustering=clustering)
        assert estimate.num_clusters == clustering.num_clusters
        assert estimate.radius == clustering.weighted_radius
        assert estimate.upper_bound_unweighted is None

    def test_quotient_weights_are_path_lengths(self, weighted_mesh):
        clustering = cluster(weighted_mesh, 2, seed=4)
        quotient = build_quotient_graph(weighted_mesh, clustering, weighted=True)
        if quotient.num_edges:
            assert quotient.weights.min() > 0
        assert quotient.num_nodes == clustering.num_clusters

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            estimate_diameter(CSRGraph.from_edges([], num_nodes=0, weights=[]))

    def test_disconnected_graph_rejected(self):
        # Two isolated nodes: two clusters and no quotient edge, so the
        # weighted diameter is infinite rather than 2·R_w + 0.
        graph = CSRGraph.from_edges(np.zeros((0, 2), dtype=np.int64), num_nodes=2, weights=[])
        with pytest.raises(ValueError, match="disconnected"):
            estimate_diameter(graph, tau=1)


class TestCoreEntryPointsFollowTheGraph:
    """On a weighted graph the core entry points answer in weighted distance."""

    @pytest.fixture(scope="class")
    def graph(self):
        return attach_weights(mesh_graph(12, 12), "uniform", seed=3)

    @pytest.mark.parametrize("entry", ["kcenter", "gonzalez", "random", "evaluate"])
    def test_kcenter_radius_is_the_dijkstra_objective(self, graph, entry):
        result = {
            "kcenter": lambda: kcenter(graph, 5, seed=0),
            "gonzalez": lambda: gonzalez_kcenter(graph, 5, seed=0),
            "random": lambda: random_centers_kcenter(graph, 5, seed=0),
            "evaluate": lambda: evaluate_centers(graph, [0, 70, 143]),
        }[entry]()
        exact = nearest_center_distances(graph, result.centers)
        assert result.radius == float(exact.max())
        assert np.array_equal(result.distance, exact)
        for v in (0, 77, 143):  # each node is assigned to a nearest center
            own_center = result.centers[result.assignment[v]]
            assert nearest_center_distances(graph, [own_center])[v] == exact[v]

    def test_evaluate_centers_rejects_out_of_range_ids(self, graph):
        for bad in ([-1], [0, graph.num_nodes]):
            with pytest.raises(IndexError, match="out of range"):
                evaluate_centers(graph, bad)

    @pytest.mark.parametrize("tau", [2, 4])
    def test_estimate_diameter_bounds_the_weighted_diameter(self, graph, tau):
        estimate = estimate_diameter(graph, tau=tau, seed=0)
        assert estimate.contains(exact_weighted_diameter(graph))
        pipeline = DecompositionPipeline(graph, method="weighted", tau=tau, seed=0).diameter()
        assert estimate.upper_bound == pipeline.upper_bound
        assert estimate.radius == estimate.clustering.weighted_radius
