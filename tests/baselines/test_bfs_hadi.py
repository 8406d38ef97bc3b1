"""Unit tests for the BFS and HADI diameter-estimation baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bfs_diameter import mr_bfs_diameter
from repro.baselines.hadi import fm_estimate, hadi_diameter, make_fm_sketches
from repro.generators import barabasi_albert_graph, cycle_graph, mesh_graph, path_graph
from repro.graph.csr import CSRGraph
from repro.graph.diameter_exact import exact_diameter
from repro.graph.traversal import bfs_distances, double_sweep


class TestBFSDiameter:
    def test_exact_on_path(self):
        result = mr_bfs_diameter(path_graph(40), seed=0)
        assert result.estimate == 39
        assert result.lower_bound <= 39 <= result.upper_bound

    def test_bounds_on_mesh(self, mesh20):
        result = mr_bfs_diameter(mesh20, seed=0)
        true_diameter = 38
        assert result.lower_bound <= true_diameter <= result.upper_bound
        assert result.num_bfs == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mr_bfs_diameter(CSRGraph.empty(0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_disconnected_rejected(self, seed):
        # Seeds 0 and 2 start on the isolated node 4, seed 1 in the path 0-2-3:
        # either way the first sweep misses a component.
        graph = CSRGraph.from_edges(np.array([[0, 2], [2, 3]]), num_nodes=5)
        with pytest.raises(ValueError, match="graph is disconnected; its diameter is infinite"):
            mr_bfs_diameter(graph, seed=seed)

    def test_mr_variant_matches_estimate(self, mesh20):
        # The metered double sweep answers what the in-memory one does: both
        # draw their start from the same seeded stream.
        start = int(np.random.default_rng(0).integers(0, mesh20.num_nodes))
        lower, farthest, _ = double_sweep(mesh20, rng=np.random.default_rng(0))
        metered = mr_bfs_diameter(mesh20, seed=0)
        assert metered.estimate == metered.lower_bound == lower
        assert metered.upper_bound == 2 * bfs_distances(mesh20, start).max()
        assert metered.num_levels == bfs_distances(mesh20, start).max() + bfs_distances(mesh20, farthest).max()

    def test_mr_rounds_theta_diameter(self):
        """BFS needs Θ(∆) rounds: on a path of length L the two sweeps cost L to 2L."""
        graph = path_graph(100)
        result = mr_bfs_diameter(graph, seed=0)
        # One round per level, plus each sweep's fruitless last level.
        assert result.metrics.rounds == result.num_levels + 2
        assert 99 <= result.num_levels <= 2 * 99

    def test_mr_communication_linear_aggregate(self, mesh20):
        result = mr_bfs_diameter(mesh20, seed=1)
        # Each sweep of a connected graph ships every node once and every arc once.
        assert result.metrics.shuffled_pairs == 2 * (mesh20.num_nodes + mesh20.num_directed_edges)
        assert result.metrics.rounds == result.num_levels + 2

    def test_simulated_time_present(self, mesh20):
        result = mr_bfs_diameter(mesh20, seed=2)
        assert result.simulated_time > 0


class TestFMSketches:
    def test_shapes_and_single_bit(self):
        sketches = make_fm_sketches(50, num_registers=8, rng=np.random.default_rng(0))
        assert sketches.shape == (50, 8)
        # Every register has exactly one bit set.
        counts = np.array([[bin(int(x)).count("1") for x in row] for row in sketches])
        assert np.all(counts == 1)

    def test_estimate_grows_with_union_size(self):
        rng = np.random.default_rng(1)
        small = make_fm_sketches(10, num_registers=32, rng=rng)
        large = make_fm_sketches(1000, num_registers=32, rng=rng)
        small_union = np.bitwise_or.reduce(small, axis=0, keepdims=True)
        large_union = np.bitwise_or.reduce(large, axis=0, keepdims=True)
        assert fm_estimate(large_union)[0] > fm_estimate(small_union)[0]

    def test_estimate_order_of_magnitude(self):
        rng = np.random.default_rng(2)
        sketches = make_fm_sketches(2000, num_registers=64, rng=rng)
        union = np.bitwise_or.reduce(sketches, axis=0, keepdims=True)
        estimate = fm_estimate(union)[0]
        assert 500 <= estimate <= 8000

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_fm_sketches(-1)
        with pytest.raises(ValueError):
            make_fm_sketches(5, num_registers=0)
        with pytest.raises(ValueError):
            fm_estimate(np.zeros(5, dtype=np.uint64))


class TestHADI:
    def test_estimate_close_to_diameter_on_small_graphs(self):
        graph = barabasi_albert_graph(400, 3, seed=3)
        true_diameter = exact_diameter(graph)
        result = hadi_diameter(graph, seed=4, num_registers=32)
        assert abs(result.estimate - true_diameter) <= 2

    def test_neighborhood_function_monotone(self, mesh8):
        result = hadi_diameter(mesh8, seed=5, num_registers=16)
        nf = result.neighborhood_function
        assert all(b >= a * 0.99 for a, b in zip(nf, nf[1:]))

    def test_rounds_theta_diameter(self):
        """HADI runs ~∆ sketch-propagation rounds."""
        graph = cycle_graph(60)  # diameter 30
        result = hadi_diameter(graph, seed=6, num_registers=16)
        assert result.metrics.rounds == result.iterations
        assert 20 <= result.metrics.rounds <= 40

    def test_communication_per_round_linear_in_edges(self, mesh20):
        result = hadi_diameter(mesh20, seed=7, num_registers=8, max_iterations=5)
        # Every round ships each node's own sketch plus one sketch per arc.
        per_round = mesh20.num_nodes + mesh20.num_directed_edges
        assert result.metrics.max_round_pairs == per_round
        assert result.metrics.shuffled_pairs == result.metrics.rounds * per_round

    def test_max_iterations_cap(self, mesh20):
        result = hadi_diameter(mesh20, seed=8, num_registers=8, max_iterations=3)
        assert result.iterations <= 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hadi_diameter(CSRGraph.empty(0))

    def test_hadi_is_slower_than_cluster_on_long_diameter_graph(self):
        """The Table 4 shape: HADI's simulated time exceeds CLUSTER's on a
        long-diameter graph under the same cost model."""
        from repro.core.mr_algorithms import mr_estimate_diameter

        graph = mesh_graph(18, 18)
        ours = mr_estimate_diameter(graph, target_clusters=20, seed=9)
        hadi = hadi_diameter(graph, seed=9, num_registers=8)
        assert hadi.simulated_time > ours.simulated_time
