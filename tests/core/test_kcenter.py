"""Unit tests for the CLUSTER-based k-center approximation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.gonzalez import gonzalez_kcenter, random_centers_kcenter
from repro.core.cluster import cluster
from repro.core.kcenter import evaluate_centers, kcenter, merge_clusters_to_k
from repro.generators import barabasi_albert_graph, mesh_graph, path_graph
from repro.graph.csr import CSRGraph
from repro.graph.traversal import multi_source_bfs


class TestEvaluateCenters:
    def test_radius_matches_bfs(self, mesh20):
        centers = [0, 399]
        result = evaluate_centers(mesh20, centers)
        dist = multi_source_bfs(mesh20, centers).distances
        assert result.radius == int(dist.max())
        assert np.array_equal(result.distance, dist)

    def test_assignment_indices_valid(self, mesh20):
        result = evaluate_centers(mesh20, [0, 210, 399])
        assert result.assignment.min() >= 0
        assert result.assignment.max() < result.k
        # Every node is assigned to its closest center.
        for v in (5, 100, 250, 390):
            dists = [
                multi_source_bfs(mesh20, [int(c)]).distances[v] for c in result.centers
            ]
            assert result.distance[v] == min(dists)

    def test_unreachable_component_inflates_radius(self, disconnected_graph):
        result = evaluate_centers(disconnected_graph, [0])
        assert result.radius == disconnected_graph.num_nodes

    def test_empty_centers_rejected(self, mesh8):
        with pytest.raises(ValueError):
            evaluate_centers(mesh8, [])


class TestKCenter:
    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_at_most_k_centers(self, mesh20, k):
        result = kcenter(mesh20, k, seed=0)
        assert 1 <= result.k <= k
        assert result.radius >= 0

    def test_radius_reasonable_vs_gonzalez(self, mesh20):
        """Theorem 2 promises O(log^3 n); in practice we are within a small
        constant factor of the Gonzalez 2-approximation."""
        k = 10
        ours = kcenter(mesh20, k, seed=1)
        greedy = gonzalez_kcenter(mesh20, k, seed=1)
        assert ours.radius <= 6 * max(1, greedy.radius)

    def test_radius_lower_bounded_by_optimal_packing(self, mesh20):
        """No k-center solution can beat the trivial volume lower bound:
        k balls of radius r cover at most k*(2r^2 + 2r + 1) mesh nodes."""
        k = 8
        ours = kcenter(mesh20, k, seed=2)
        r = ours.radius
        assert k * (2 * r * r + 2 * r + 1) >= mesh20.num_nodes

    def test_k_larger_than_n(self, mesh8):
        result = kcenter(mesh8, 100, seed=3)
        assert result.radius == 0
        assert result.k == mesh8.num_nodes

    def test_invalid_k(self, mesh8):
        with pytest.raises(ValueError):
            kcenter(mesh8, 0)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            kcenter(CSRGraph.empty(0), 2)

    def test_disconnected_graph_with_enough_centers(self, disconnected_graph):
        result = kcenter(disconnected_graph, 6, seed=4)
        # With k >= number of components a finite radius is achievable.
        assert result.radius < disconnected_graph.num_nodes

    def test_explicit_tau(self, mesh20):
        """CLUSTER at a chosen τ, merged down to k, keeps at most k centers."""
        centers = merge_clusters_to_k(mesh20, cluster(mesh20, 2, seed=5), 12, seed=5)
        assert evaluate_centers(mesh20, centers).k <= 12

    def test_deterministic(self, mesh20):
        a = kcenter(mesh20, 10, seed=6)
        b = kcenter(mesh20, 10, seed=6)
        assert np.array_equal(a.centers, b.centers)


class TestMergeClusters:
    def test_merge_reduces_to_k(self, mesh20):
        clustering = cluster(mesh20, 8, seed=7)
        assert clustering.num_clusters > 5
        centers = merge_clusters_to_k(mesh20, clustering, 5, seed=7)
        assert 1 <= centers.size <= 5
        assert np.all(np.isin(centers, clustering.centers))

    def test_no_merge_needed(self, mesh20):
        clustering = cluster(mesh20, 1, seed=8)
        k = clustering.num_clusters + 10
        centers = merge_clusters_to_k(mesh20, clustering, k)
        assert np.array_equal(np.sort(centers), np.sort(clustering.centers))

    def test_invalid_k(self, mesh20):
        clustering = cluster(mesh20, 2, seed=9)
        with pytest.raises(ValueError):
            merge_clusters_to_k(mesh20, clustering, 0)


class TestBaselines:
    def test_gonzalez_two_approximation_property(self, mesh20):
        """Gonzalez radius decreases (weakly) in k from the same (seeded) first center."""
        r_small = gonzalez_kcenter(mesh20, 2, seed=10).radius
        r_large = gonzalez_kcenter(mesh20, 16, seed=10).radius
        assert r_large <= r_small

    def test_gonzalez_k_equals_n(self, mesh8):
        assert gonzalez_kcenter(mesh8, mesh8.num_nodes, seed=0).radius == 0

    def test_gonzalez_covers_components(self, disconnected_graph):
        result = gonzalez_kcenter(disconnected_graph, 3, seed=11)
        assert result.radius < disconnected_graph.num_nodes

    def test_gonzalez_invalid(self, mesh8):
        with pytest.raises(ValueError):
            gonzalez_kcenter(mesh8, 0)
        with pytest.raises(ValueError):
            gonzalez_kcenter(CSRGraph.empty(0), 1)

    def test_random_centers_baseline(self, mesh20):
        result = random_centers_kcenter(mesh20, 5, seed=12)
        assert result.k == 5
        assert result.algorithm == "random"

    def test_random_invalid(self, mesh8):
        with pytest.raises(ValueError):
            random_centers_kcenter(mesh8, 0)
        with pytest.raises(ValueError):
            random_centers_kcenter(CSRGraph.empty(0), 1)

    def test_cluster_beats_random_usually(self, mesh20):
        """On the mesh the CLUSTER-based centers should not be much worse than
        random ones (and typically better); sanity guard against regressions."""
        ours = kcenter(mesh20, 12, seed=13)
        rnd = random_centers_kcenter(mesh20, 12, seed=13)
        assert ours.radius <= 2 * rnd.radius + 2
