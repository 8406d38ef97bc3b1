"""Unit tests for the decomposition-based diameter approximation."""

from __future__ import annotations

import pytest

from repro.core.cluster import cluster, default_tau
from repro.core.diameter import diameter_upper_bounds, estimate_diameter
from repro.core.pipeline import DecompositionPipeline, PipelineConfig
from repro.generators import (
    barabasi_albert_graph,
    cycle_graph,
    mesh_graph,
    path_graph,
    road_network_graph,
)
from repro.graph.diameter_exact import exact_diameter


class TestBoundsSandwich:
    """Corollary 1 / §4: ∆_C <= ∆ <= ∆'' <= ∆' on every tested graph."""

    @pytest.mark.parametrize(
        "graph_builder,name",
        [
            (lambda: mesh_graph(15, 15), "mesh"),
            (lambda: path_graph(120), "path"),
            (lambda: cycle_graph(90), "cycle"),
            (lambda: barabasi_albert_graph(400, 3, seed=3), "ba"),
            (lambda: road_network_graph(20, 20, seed=4), "road"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sandwich(self, graph_builder, name, seed):
        graph = graph_builder()
        true_diameter = exact_diameter(graph)
        estimate = estimate_diameter(graph, tau=2, seed=seed)
        assert estimate.lower_bound <= true_diameter, name
        assert estimate.upper_bound >= true_diameter, name
        assert estimate.upper_bound_weighted <= estimate.upper_bound_unweighted + 1e-9, name
        assert estimate.contains(true_diameter)

    def test_sandwich_with_cluster2(self, mesh20):
        true_diameter = exact_diameter(mesh20)
        estimate = DecompositionPipeline(mesh20, PipelineConfig(method="cluster2", tau=2, seed=5)).diameter()
        assert estimate.lower_bound <= true_diameter <= estimate.upper_bound

    def test_both_upper_bounds_reported(self, mesh20):
        """An unweighted graph always gets ∆'' as its estimate, beside ∆'."""
        true_diameter = exact_diameter(mesh20)
        estimate = estimate_diameter(mesh20, tau=2, seed=6)
        assert estimate.upper_bound == estimate.upper_bound_weighted
        assert true_diameter <= estimate.upper_bound_weighted <= estimate.upper_bound_unweighted


class TestApproximationQuality:
    def test_ratio_below_polylog(self, mesh20):
        """The experiments show ratios < 2; assert a generous polylog guard."""
        true_diameter = exact_diameter(mesh20)
        estimate = estimate_diameter(mesh20, tau=4, seed=7)
        assert estimate.approximation_ratio(true_diameter) < 4.0

    def test_ratio_on_long_path(self):
        graph = path_graph(300)
        estimate = estimate_diameter(graph, tau=2, seed=8)
        assert estimate.approximation_ratio(299) < 2.5

    def test_ratio_infinite_for_zero_diameter(self, mesh8):
        estimate = estimate_diameter(mesh8, tau=1, seed=9)
        assert estimate.approximation_ratio(0) == float("inf")


class TestParameterHandling:
    def test_conflicting_parameters_rejected(self, mesh8):
        with pytest.raises(ValueError):
            estimate_diameter(mesh8, tau=2, target_clusters=5)

    def test_reuse_existing_clustering(self, mesh20):
        clustering = cluster(mesh20, 4, seed=10)
        estimate = estimate_diameter(mesh20, clustering=clustering)
        assert estimate.clustering is clustering
        assert estimate.num_clusters == clustering.num_clusters

    def test_target_clusters_mode(self, mesh20):
        estimate = estimate_diameter(mesh20, target_clusters=30, seed=11)
        assert 10 <= estimate.num_clusters <= 90

    def test_default_tau_positive(self, mesh20, ba_graph):
        assert default_tau(mesh20) >= 1
        assert default_tau(ba_graph) >= 1

    def test_default_tau_used_when_nothing_given(self, mesh8):
        estimate = estimate_diameter(mesh8, seed=12)
        assert estimate.num_clusters >= 1

    def test_upper_bound_formula(self):
        unweighted, weighted = diameter_upper_bounds(5, 3, 12.0)
        assert unweighted == 2 * 3 * 6 + 5
        assert weighted == 2 * 3 + 12.0


class TestQuotientSizeReporting:
    def test_reported_sizes_match_clustering(self, mesh20):
        estimate = estimate_diameter(mesh20, tau=4, seed=13)
        assert estimate.num_clusters == estimate.clustering.num_clusters
        assert estimate.num_quotient_edges >= estimate.num_clusters - 1  # connected quotient
