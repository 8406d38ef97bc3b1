"""Unit tests for the MPX (Miller–Peng–Xu) baseline decomposition."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.baselines.mpx as mpx_module
from repro.baselines.mpx import mpx_decomposition, mpx_with_target_clusters
from repro.core.cluster import cluster_with_target_clusters
from repro.generators import barabasi_albert_graph, mesh_graph, road_network_graph
from repro.generators.rmat import rmat_graph
from repro.graph.components import num_connected_components
from repro.graph.csr import CSRGraph


class TestMPXInvariants:
    @pytest.mark.parametrize("beta", [0.1, 0.5, 2.0])
    def test_partition_valid(self, mesh20, beta):
        result = mpx_decomposition(mesh20, beta, seed=0)
        result.validate(mesh20)
        assert result.algorithm == "mpx"

    def test_every_node_covered(self, ba_graph):
        result = mpx_decomposition(ba_graph, 0.3, seed=1)
        assert np.all(result.assignment >= 0)

    def test_deterministic_given_seed(self, mesh20):
        a = mpx_decomposition(mesh20, 0.5, seed=2)
        b = mpx_decomposition(mesh20, 0.5, seed=2)
        assert np.array_equal(a.assignment, b.assignment)

    def test_invalid_beta(self, mesh8):
        with pytest.raises(ValueError):
            mpx_decomposition(mesh8, 0.0)
        with pytest.raises(ValueError):
            mpx_decomposition(mesh8, -1.0)

    def test_disconnected_graph(self, disconnected_graph):
        result = mpx_decomposition(disconnected_graph, 0.4, seed=3)
        result.validate(disconnected_graph)

    def test_no_idle_rounds_on_disconnected_graph(self):
        # Every recorded round grows a cluster or starts one: once a
        # component is covered, the loop skips to the next start round
        # instead of stepping through ~ln(n)/beta idle rounds.
        graph = rmat_graph(10, 8, seed=3)  # 218 components, most of them isolated nodes
        result = mpx_decomposition(graph, 1e-3, seed=0)
        result.validate(graph)
        assert len(result.iterations) <= result.growth_steps + result.num_clusters

    def test_beta_controls_granularity(self, mesh20):
        few = mpx_decomposition(mesh20, 0.05, seed=4)
        many = mpx_decomposition(mesh20, 2.0, seed=4)
        assert many.num_clusters > few.num_clusters

    def test_radius_bound_mpx_theorem(self, mesh20):
        """MPX: max radius O(log n / beta) w.h.p.; assert a generous constant."""
        beta = 0.5
        result = mpx_decomposition(mesh20, beta, seed=5)
        bound = 8 * math.log(mesh20.num_nodes) / beta
        assert result.max_radius <= bound


class TestMPXTargeting:
    def test_lands_near_target(self, mesh20):
        target = 30
        result = mpx_with_target_clusters(mesh20, target, seed=6)
        assert 0.3 * target <= result.num_clusters <= 3 * target

    def test_at_least_target_bias(self, road_graph):
        target = 25
        result = mpx_with_target_clusters(road_graph, target, seed=7, require_at_least_target=True)
        # The paper's protocol gives MPX at least as many clusters as requested.
        assert result.num_clusters >= 0.65 * target

    def test_target_below_component_count(self):
        # Isolated nodes keep the count above the target: no beta reaches it.
        graph = rmat_graph(10, 8, seed=3)
        result = mpx_with_target_clusters(graph, 12, seed=0)
        result.validate(graph)
        assert result.num_clusters == num_connected_components(graph)

    def test_search_stops_at_the_component_floor(self, monkeypatch):
        # 218 components, target 12: the first trial already has one cluster
        # per component, so it is the only decomposition the search runs, and
        # it is the clustering the full 12-trial search used to return.
        graph = rmat_graph(10, 8, seed=3)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return mpx_decomposition(*args, **kwargs)

        monkeypatch.setattr(mpx_module, "mpx_decomposition", counted)
        result = mpx_with_target_clusters(graph, 12, seed=0)
        assert len(calls) == 1
        first_trial = mpx_decomposition(graph, 12 / graph.num_nodes, seed=np.random.default_rng(0))
        assert result.num_clusters == 218
        assert np.array_equal(result.assignment, first_trial.assignment)
        assert np.array_equal(result.centers, first_trial.centers)

    def test_invalid_target(self, mesh8):
        with pytest.raises(ValueError):
            mpx_with_target_clusters(mesh8, 0)
        with pytest.raises(ValueError):
            mpx_with_target_clusters(CSRGraph.empty(0), 3)


class TestPaperComparison:
    def test_cluster_radius_not_worse_than_mpx_on_road_graph(self):
        """The headline of Table 2: at comparable granularity CLUSTER's maximum
        radius is smaller than MPX's on long-diameter graphs."""
        graph = road_network_graph(30, 30, seed=8)
        target = max(10, graph.num_nodes // 20)
        ours = cluster_with_target_clusters(graph, target, seed=9)
        mpx = mpx_with_target_clusters(graph, max(target, ours.num_clusters), seed=9,
                                       require_at_least_target=True)
        assert ours.max_radius <= mpx.max_radius + 1
