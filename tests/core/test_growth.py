"""Unit tests for the disjoint cluster-growing primitive."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.growth_engine import UNCOVERED, GrowthEngine
from repro.generators import mesh_graph, path_graph
from repro.graph.csr import CSRGraph


class TestAddCenters:
    def test_basic(self, mesh8):
        growth = GrowthEngine(mesh8)
        accepted = growth.add_centers([0, 63])
        assert accepted.tolist() == [0, 63]
        assert growth.num_clusters == 2
        assert growth.num_covered == 2
        assert growth.distance[0] == 0 and growth.distance[63] == 0

    def test_duplicate_and_covered_ignored(self, mesh8):
        growth = GrowthEngine(mesh8)
        growth.add_centers([5, 5, 5])
        assert growth.num_clusters == 1
        again = growth.add_centers([5])
        assert again.size == 0
        assert growth.num_clusters == 1

    def test_out_of_range(self, mesh8):
        growth = GrowthEngine(mesh8)
        with pytest.raises(IndexError):
            growth.add_centers([999])

    def test_empty_add(self, mesh8):
        growth = GrowthEngine(mesh8)
        assert growth.add_centers([]).size == 0


class TestGrowStep:
    def test_single_center_bfs_layers(self, path10):
        growth = GrowthEngine(path10)
        growth.add_centers([0])
        total = 0
        while growth.num_uncovered:
            total += growth.grow_step()
        assert total == 9
        assert np.array_equal(growth.distance, np.arange(10))

    def test_disjointness(self, mesh20):
        growth = GrowthEngine(mesh20)
        growth.add_centers([0, 399, 210])
        while growth.num_uncovered:
            if growth.grow_step() == 0:
                break
        assert growth.num_covered == mesh20.num_nodes
        # Every node belongs to exactly one cluster.
        assert np.all(growth.assignment >= 0)
        assert set(np.unique(growth.assignment).tolist()) == {0, 1, 2}

    def test_step_log_records_volume(self, mesh8):
        growth = GrowthEngine(mesh8)
        growth.add_centers([0])
        growth.grow_step()
        assert len(growth.step_log) == 1
        entry = growth.step_log[0]
        assert entry.frontier_size == 1
        assert entry.arcs_scanned == mesh8.degree(0)
        assert entry.newly_covered == 2

    def test_empty_frontier_is_noop(self, mesh8):
        growth = GrowthEngine(mesh8)
        assert growth.grow_step() == 0

    def test_saturated_frontier_stops(self):
        g = path_graph(3)
        growth = GrowthEngine(g)
        growth.add_centers([0, 1, 2])
        assert growth.grow_step() == 0

    def test_grow_until_target(self, mesh20):
        growth = GrowthEngine(mesh20)
        growth.mark()
        growth.add_centers([0])
        steps = growth.grow_until(200)
        assert growth.newly_covered_since_mark >= 200
        assert steps >= 1

    def test_grow_steps_exact_count(self, mesh20):
        growth = GrowthEngine(mesh20)
        growth.add_centers([0])
        growth.grow_steps(5)
        assert growth.distance.max() == 5
        assert growth.num_steps == 5


class TestFreeze:
    def test_to_clustering_requires_full_cover(self, mesh8):
        growth = GrowthEngine(mesh8)
        growth.add_centers([0])
        with pytest.raises(RuntimeError):
            growth.to_clustering()

    def test_singleton_promotion_and_freeze(self, disconnected_graph):
        growth = GrowthEngine(disconnected_graph)
        growth.add_centers([0])
        while growth.grow_step():
            pass
        growth.cover_remaining_as_singletons()
        clustering = growth.to_clustering("test")
        clustering.validate(disconnected_graph)
        assert clustering.algorithm == "test"

    def test_distance_upper_bounds_true_distance(self, mesh20):
        from repro.graph.traversal import bfs_distances

        growth = GrowthEngine(mesh20)
        growth.add_centers([0, 399])
        while growth.num_uncovered:
            if growth.grow_step() == 0:
                break
        clustering = growth.to_clustering()
        for cid in range(clustering.num_clusters):
            center = int(clustering.centers[cid])
            true_dist = bfs_distances(mesh20, center)
            members = clustering.members(cid)
            assert np.all(clustering.distance[members] >= true_dist[members])
