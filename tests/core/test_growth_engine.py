"""Unit and property tests for the policy-driven GrowthEngine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.mpx import mpx_decomposition
from repro.core.cluster import cluster
from repro.core.growth_engine import (
    UNCOVERED,
    ArbitraryTieBreak,
    BatchHalvingSchedule,
    GeometricSchedule,
    GrowthEngine,
    MinWeightTieBreak,
    ShiftedStartTieBreak,
    StaticSchedule,
    farthest_point_centers,
    multi_source_growth,
)
from repro.experiments.ablations import single_batch_decomposition
from repro.generators import attach_weights, mesh_graph, path_graph
from repro.graph.csr import CSRGraph
from repro.graph.traversal import multi_source_bfs


def unit_weighted(graph: CSRGraph) -> CSRGraph:
    return CSRGraph(indptr=graph.indptr, indices=graph.indices, weights=np.ones(graph.indices.size))


class TestTieBreakSelection:
    def test_unweighted_graph_defaults_to_arbitrary(self, mesh8):
        assert isinstance(GrowthEngine(mesh8).tie_break, ArbitraryTieBreak)

    def test_weighted_graph_defaults_to_min_weight(self, mesh8):
        wgraph = unit_weighted(mesh8)
        engine = GrowthEngine(wgraph)
        assert isinstance(engine.tie_break, MinWeightTieBreak)
        assert engine.weighted_distance is not None

    def test_policy_graph_metric_mismatch_rejected(self, mesh8):
        wgraph = unit_weighted(mesh8)
        with pytest.raises(ValueError, match="expects a weighted graph"):
            GrowthEngine(mesh8, tie_break=MinWeightTieBreak())
        with pytest.raises(ValueError, match="expects an unweighted graph"):
            GrowthEngine(wgraph, tie_break=ArbitraryTieBreak())
        with pytest.raises(ValueError, match="expects an unweighted graph"):
            GrowthEngine(wgraph, tie_break=ShiftedStartTieBreak(np.zeros(wgraph.num_nodes)))

    def test_min_weight_awards_lightest_claim(self):
        # Node 2 is reachable from center 0 (weight 10) and center 3 (weight 1)
        # in the same round: it must join the lighter cluster.
        graph = CSRGraph.from_edges(
            [(0, 2), (3, 2), (0, 1), (3, 4)], weights=[10.0, 1.0, 1.0, 1.0]
        )
        engine = GrowthEngine(graph)
        engine.add_centers([0, 3])
        engine.grow_step()
        assert engine.assignment[2] == engine.assignment[3]
        assert engine.weighted_distance[2] == pytest.approx(1.0)

    def test_shifted_start_awards_earliest_center(self):
        # Star: node 0 adjacent to centers 1 and 2.  Priority (start time) of
        # center 2 is smaller, so node 0 must join cluster of 2 even though
        # center 1 comes first in the adjacency scan.
        graph = path_graph(3)  # 0-1-2; recenter: contested node is 1
        priority = np.array([5.0, 9.0, 1.0])
        engine = GrowthEngine(graph, tie_break=ShiftedStartTieBreak(priority))
        engine.add_centers([0, 2])
        engine.grow_step()
        assert engine.assignment[1] == engine.assignment[2]

    def test_shifted_start_mpx_variant_valid(self, mesh20):
        clustering = mpx_decomposition(mesh20, 0.2, seed=3, tie_break="shifted-start")
        clustering.validate(mesh20)
        with pytest.raises(ValueError, match="tie_break"):
            mpx_decomposition(mesh20, 0.2, seed=3, tie_break="bogus")


class TestMultiSourceGrowth:
    def test_matches_multi_source_bfs(self, mesh20):
        sources = [0, 57, 399]
        engine = multi_source_growth(mesh20, sources)
        bfs = multi_source_bfs(mesh20, sources)
        assert np.array_equal(engine.distance, bfs.distances)
        # Engine assignment indexes sorted centers; BFS owners are node ids.
        centers = np.asarray(sorted(sources))
        assert np.array_equal(centers[engine.assignment], bfs.sources)

    def test_unreachable_stays_uncovered(self, disconnected_graph):
        engine = multi_source_growth(disconnected_graph, [0])
        assert np.any(engine.distance == UNCOVERED)
        assert np.any(engine.assignment == UNCOVERED)

    def test_promote_singletons_covers_everything(self, disconnected_graph):
        engine = multi_source_growth(disconnected_graph, [0], promote_singletons=True)
        clustering = engine.to_clustering("static")
        clustering.validate(disconnected_graph)


class TestSchedules:
    def test_batch_halving_matches_cluster(self, mesh20):
        direct = cluster(mesh20, 2, seed=99)
        engine = GrowthEngine(mesh20).run(BatchHalvingSchedule(2, np.random.default_rng(99)))
        via_engine = engine.to_clustering("cluster")
        assert np.array_equal(direct.assignment, via_engine.assignment)
        assert np.array_equal(direct.centers, via_engine.centers)
        assert np.array_equal(direct.distance, via_engine.distance)

    def test_batch_halving_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            BatchHalvingSchedule(0)

    def test_geometric_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="growth_budget"):
            GeometricSchedule(0)

    def test_geometric_covers_everything(self, mesh20):
        engine = GrowthEngine(mesh20).run(GeometricSchedule(3, np.random.default_rng(1)))
        clustering = engine.to_clustering("cluster2")
        clustering.validate(mesh20)
        # Iteration trace records the geometric probabilities 2^i / n (the
        # loop may stop before the forced-1.0 final iteration once covered).
        probs = [it.selection_probability for it in clustering.iterations]
        assert all(p2 >= p1 for p1, p2 in zip(probs, probs[1:]))
        n = mesh20.num_nodes
        assert probs[0] == pytest.approx(2.0 / n)

    def test_static_schedule_records_one_iteration(self, mesh8):
        engine = GrowthEngine(mesh8).run(StaticSchedule([0, 63]))
        clustering = engine.to_clustering("single-batch")
        clustering.validate(mesh8)
        assert len(clustering.iterations) == 1
        assert clustering.iterations[0].new_centers == 2

    def test_single_batch_driver(self, disconnected_graph):
        clustering = single_batch_decomposition(disconnected_graph, 4, seed=5)
        clustering.validate(disconnected_graph)
        assert clustering.algorithm == "single-batch"


class TestFarthestPoint:
    def test_path_endpoints_selected(self):
        graph = path_graph(10)
        centers = farthest_point_centers(graph, 2, first_center=0)
        assert centers == [0, 9]

    def test_disconnected_components_prioritized(self, disconnected_graph):
        centers = farthest_point_centers(disconnected_graph, 3, first_center=0)
        engine = multi_source_growth(disconnected_graph, centers)
        assert not np.any(engine.distance == UNCOVERED)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            farthest_point_centers(path_graph(3), 0, first_center=0)


class TestWeightedEngineTrace:
    def test_weighted_run_records_unified_stats(self):
        wgraph = attach_weights(mesh_graph(12, 12), "uniform", seed=np.random.default_rng(4))
        engine = GrowthEngine(wgraph).run(BatchHalvingSchedule(1, np.random.default_rng(8)))
        clustering = engine.to_clustering()
        clustering.validate(wgraph)
        assert clustering.is_weighted
        assert clustering.growth_steps == len(clustering.step_log)
        assert clustering.iterations, "weighted runs must record iteration stats"
        assert all(s.arcs_scanned >= 0 for s in clustering.step_log)

    def test_to_clustering_records_weighted_distance(self, mesh8):
        plain = GrowthEngine(mesh8).run(StaticSchedule([0])).to_clustering()
        assert not plain.is_weighted and plain.weighted_distance is None
        weighted = GrowthEngine(unit_weighted(mesh8)).run(StaticSchedule([0])).to_clustering()
        assert weighted.is_weighted
        assert np.array_equal(weighted.weighted_distance, weighted.distance.astype(np.float64))


@pytest.mark.parametrize("algorithm", ["cluster", "cluster2", "mpx", "single-batch"])
def test_engine_clusterings_always_validate(algorithm, mesh20, disconnected_graph):
    """Property: every engine-produced decomposition is a valid partition."""
    from repro.core.cluster2 import cluster2

    for graph in (mesh20, disconnected_graph):
        if algorithm == "cluster":
            clustering = cluster(graph, 2, seed=31)
        elif algorithm == "cluster2":
            clustering = cluster2(graph, 2, seed=31).clustering
        elif algorithm == "mpx":
            clustering = mpx_decomposition(graph, 0.25, seed=31)
        else:
            clustering = single_batch_decomposition(graph, 6, seed=31)
        clustering.validate(graph)
