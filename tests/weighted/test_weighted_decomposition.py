"""Unit tests for the weighted decomposition and its applications."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.growth_engine import GrowthEngine, MinWeightTieBreak
from repro.generators import mesh_graph, path_graph, road_network_graph
from repro.weighted.applications import (
    build_weighted_quotient,
    estimate_weighted_diameter,
    weighted_gonzalez_kcenter,
    weighted_kcenter,
)
from repro.weighted.decomposition import weighted_cluster
from repro.weighted.traversal import multi_source_dijkstra
from repro.weighted.wgraph import WeightedCSRGraph


@pytest.fixture
def weighted_mesh():
    return WeightedCSRGraph.random_weights(
        mesh_graph(14, 14), low=1.0, high=4.0, rng=np.random.default_rng(5)
    )


@pytest.fixture
def weighted_road():
    return WeightedCSRGraph.random_weights(
        road_network_graph(20, 20, seed=6), low=1.0, high=9.0, rng=np.random.default_rng(6)
    )


def exact_weighted_diameter(graph: WeightedCSRGraph) -> float:
    """Brute-force weighted diameter for small test graphs."""
    best = 0.0
    for v in range(graph.num_nodes):
        dist = multi_source_dijkstra(graph, [v]).distances
        finite = dist[np.isfinite(dist)]
        best = max(best, float(finite.max()))
    return best


def weighted_growth(graph: WeightedCSRGraph) -> GrowthEngine:
    """The weighted growth loop: the shared engine with min-weight claims."""
    return GrowthEngine(graph, tie_break=MinWeightTieBreak())


class TestWeightedGrowth:
    def test_single_center_hop_layers(self):
        graph = WeightedCSRGraph.from_unit_graph(path_graph(6))
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
        graph = WeightedCSRGraph.from_edges([(0, 2), (3, 2), (0, 1), (3, 4)], weights=[10.0, 1.0, 1.0, 1.0])
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
            growth.to_weighted_clustering()


class TestWeightedCluster:
    @pytest.mark.parametrize("tau", [1, 2, 4])
    def test_valid_partition(self, weighted_mesh, tau):
        clustering = weighted_cluster(weighted_mesh, tau, seed=0)
        clustering.validate(weighted_mesh)
        assert clustering.cluster_sizes().sum() == weighted_mesh.num_nodes

    def test_hop_radius_bounds_rounds(self, weighted_road):
        clustering = weighted_cluster(weighted_road, 2, seed=1)
        assert clustering.hop_radius <= clustering.growth_rounds
        assert clustering.weighted_radius >= clustering.hop_radius * 1.0 - 1e-9

    def test_weighted_radius_upper_bounds_hop_radius_times_min_weight(self, weighted_mesh):
        clustering = weighted_cluster(weighted_mesh, 2, seed=2)
        # every edge weighs at least 1, so weighted distance >= hop distance
        assert np.all(clustering.weighted_distance + 1e-9 >= clustering.hop_distance)

    def test_deterministic(self, weighted_mesh):
        a = weighted_cluster(weighted_mesh, 2, seed=3)
        b = weighted_cluster(weighted_mesh, 2, seed=3)
        assert np.array_equal(a.assignment, b.assignment)

    def test_invalid_tau(self, weighted_mesh):
        with pytest.raises(ValueError):
            weighted_cluster(weighted_mesh, 0)

    def test_more_tau_more_clusters_smaller_radius(self, weighted_road):
        coarse = weighted_cluster(weighted_road, 1, seed=4)
        fine = weighted_cluster(weighted_road, 16, seed=4)
        assert fine.num_clusters >= coarse.num_clusters
        assert fine.weighted_radius <= coarse.weighted_radius + 1e-9

    def test_summary_and_members(self, weighted_mesh):
        clustering = weighted_cluster(weighted_mesh, 2, seed=5)
        summary = clustering.summary()
        assert summary["num_clusters"] == clustering.num_clusters
        members = clustering.members(0)
        assert np.all(clustering.assignment[members] == 0)
        with pytest.raises(IndexError):
            clustering.members(clustering.num_clusters)


class TestWeightedKCenter:
    def test_radius_is_exact_objective(self, weighted_mesh):
        result = weighted_kcenter(weighted_mesh, 8, seed=0)
        exact = multi_source_dijkstra(weighted_mesh, list(result.centers)).distances
        assert result.radius == pytest.approx(float(exact.max()))
        assert result.k <= 8

    def test_tracks_gonzalez(self, weighted_road):
        ours = weighted_kcenter(weighted_road, 10, seed=1)
        greedy = weighted_gonzalez_kcenter(weighted_road, 10, seed=1)
        assert ours.radius <= 6 * greedy.radius

    def test_k_at_least_n(self, weighted_mesh):
        result = weighted_kcenter(weighted_mesh, weighted_mesh.num_nodes + 5, seed=2)
        assert result.radius == pytest.approx(0.0)

    def test_invalid_inputs(self, weighted_mesh):
        with pytest.raises(ValueError):
            weighted_kcenter(weighted_mesh, 0)
        with pytest.raises(ValueError):
            weighted_gonzalez_kcenter(weighted_mesh, 0)

    def test_gonzalez_radius_decreases_with_k(self, weighted_road):
        r2 = weighted_gonzalez_kcenter(weighted_road, 2, seed=3, first_center=0).radius
        r10 = weighted_gonzalez_kcenter(weighted_road, 10, seed=3, first_center=0).radius
        assert r10 <= r2


class TestWeightedDiameter:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sandwich(self, weighted_mesh, seed):
        true_diameter = exact_weighted_diameter(weighted_mesh)
        estimate = estimate_weighted_diameter(weighted_mesh, tau=2, seed=seed)
        assert estimate.lower_bound <= true_diameter + 1e-9
        assert estimate.upper_bound >= true_diameter - 1e-9
        assert estimate.contains(true_diameter)

    def test_sandwich_on_road(self, weighted_road):
        true_diameter = exact_weighted_diameter(weighted_road)
        estimate = estimate_weighted_diameter(weighted_road, tau=4, seed=2)
        assert estimate.lower_bound <= true_diameter + 1e-9 <= estimate.upper_bound + 2e-9

    def test_reuse_clustering(self, weighted_mesh):
        clustering = weighted_cluster(weighted_mesh, 2, seed=3)
        estimate = estimate_weighted_diameter(weighted_mesh, clustering=clustering)
        assert estimate.num_clusters == clustering.num_clusters
        assert estimate.hop_radius == clustering.hop_radius

    def test_quotient_weights_are_path_lengths(self, weighted_mesh):
        clustering = weighted_cluster(weighted_mesh, 2, seed=4)
        quotient = build_weighted_quotient(weighted_mesh, clustering)
        if quotient.num_edges:
            assert quotient.weights.min() > 0
        assert quotient.num_nodes == clustering.num_clusters

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            estimate_weighted_diameter(WeightedCSRGraph.from_edges([], num_nodes=0, weights=[]))
