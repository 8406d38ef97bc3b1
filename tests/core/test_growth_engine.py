"""Unit and property tests for the GrowthEngine and the decomposition loops over it."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.gonzalez import farthest_point_centers
from repro.baselines.mpx import mpx_decomposition
from repro.core.cluster import cluster, selection_probability, single_batch_decomposition
from repro.core.cluster2 import cluster2
from repro.core.clustering import Clustering
from repro.core.growth_engine import UNCOVERED, GrowthEngine
from repro.generators import attach_weights, mesh_graph, path_graph
from repro.graph.csr import CSRGraph
from repro.graph.traversal import multi_source_bfs


def unit_weighted(graph: CSRGraph) -> CSRGraph:
    return CSRGraph(indptr=graph.indptr, indices=graph.indices, weights=np.ones(graph.indices.size))


def grow_from(graph: CSRGraph, centers) -> GrowthEngine:
    """All ``centers`` up front, grown until no step makes progress."""
    engine = GrowthEngine(graph)
    engine.add_centers(centers)
    engine.grow_to_exhaustion()
    return engine


class TestTieBreakSelection:
    def test_unweighted_graph_defaults_to_arbitrary(self):
        # Path 0-1-2 grown from 0 and 2: both claim node 1 in the same step,
        # and the first claimant in the adjacency scan (center 0) wins.
        engine = GrowthEngine(path_graph(3))
        engine.add_centers([2, 0])
        engine.grow_step()
        assert engine.weighted_distance is None
        assert engine.assignment[1] == engine.assignment[0]

    def test_weighted_graph_defaults_to_min_weight(self, mesh8):
        wgraph = unit_weighted(mesh8)
        engine = grow_from(wgraph, [0])
        assert engine.weighted_distance is not None
        assert np.array_equal(engine.weighted_distance, engine.distance.astype(np.float64))

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


class TestMultiSourceGrowth:
    def test_matches_multi_source_bfs(self, mesh20):
        sources = [0, 57, 399]
        engine = grow_from(mesh20, sources)
        bfs = multi_source_bfs(mesh20, sources)
        assert np.array_equal(engine.distance, bfs.distances)
        # Engine assignment indexes sorted centers; BFS owners are node ids.
        centers = np.asarray(sorted(sources))
        assert np.array_equal(centers[engine.assignment], bfs.sources)

    def test_unreachable_stays_uncovered(self, disconnected_graph):
        engine = grow_from(disconnected_graph, [0])
        assert np.any(engine.distance == UNCOVERED)
        assert np.any(engine.assignment == UNCOVERED)

    def test_promote_singletons_covers_everything(self, disconnected_graph):
        engine = grow_from(disconnected_graph, [0])
        engine.cover_remaining_as_singletons()
        clustering = engine.to_clustering("static")
        clustering.validate(disconnected_graph)


class TestSchedules:
    def test_batch_halving_matches_cluster(self, mesh20):
        # CLUSTER's trace follows Algorithm 1: each batch is drawn with
        # probability 4 τ log n / |uncovered| and grown until half the
        # previously uncovered nodes are covered.
        n = mesh20.num_nodes
        clustering = cluster(mesh20, 2, seed=99)
        assert clustering.iterations
        for it in clustering.iterations:
            assert it.selection_probability == selection_probability(n, 2, it.uncovered_before)
            newly = it.covered_after - (n - it.uncovered_before)
            assert newly >= math.ceil(it.uncovered_before / 2)
        assert clustering.growth_steps == sum(it.growth_steps for it in clustering.iterations)

    def test_batch_halving_rejects_bad_tau(self, mesh8):
        with pytest.raises(ValueError, match="tau"):
            cluster(mesh8, 0)

    def test_geometric_rejects_bad_budget(self, mesh8):
        # A pilot of radius 0 would give CLUSTER2 a 2 R_ALG = 0 growth budget;
        # the refinement still grows one step in every iteration that has a
        # cluster to grow.
        singletons = Clustering(
            num_nodes=mesh8.num_nodes,
            assignment=np.arange(mesh8.num_nodes),
            centers=np.arange(mesh8.num_nodes),
            distance=np.zeros(mesh8.num_nodes, dtype=np.int64),
        )
        result = cluster2(mesh8, 1, seed=2, pilot=singletons)
        assert result.r_alg == 0
        for it in result.clustering.iterations:
            assert it.growth_steps == (1 if it.covered_after else 0)
        result.clustering.validate(mesh8)

    def test_geometric_covers_everything(self, mesh20):
        clustering = cluster2(mesh20, 1, seed=1).clustering
        clustering.validate(mesh20)
        # Iteration trace records the geometric probabilities 2^i / n (the
        # loop may stop before the forced-1.0 final iteration once covered).
        probs = [it.selection_probability for it in clustering.iterations]
        assert all(p2 >= p1 for p1, p2 in zip(probs, probs[1:]))
        n = mesh20.num_nodes
        assert probs[0] == pytest.approx(2.0 / n)

    def test_static_schedule_records_one_iteration(self, mesh8):
        clustering = single_batch_decomposition(mesh8, 2, seed=0)
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
        engine = grow_from(disconnected_graph, centers)
        assert not np.any(engine.distance == UNCOVERED)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            farthest_point_centers(path_graph(3), 0, first_center=0)


class TestWeightedEngineTrace:
    def test_weighted_run_records_unified_stats(self):
        wgraph = attach_weights(mesh_graph(12, 12), "uniform", seed=np.random.default_rng(4))
        clustering = cluster(wgraph, 1, seed=8)
        clustering.validate(wgraph)
        assert clustering.is_weighted
        assert clustering.growth_steps == len(clustering.step_log)
        assert clustering.iterations, "weighted runs must record iteration stats"
        assert all(s.arcs_scanned >= 0 for s in clustering.step_log)

    def test_to_clustering_records_weighted_distance(self, mesh8):
        plain = grow_from(mesh8, [0]).to_clustering()
        assert not plain.is_weighted and plain.weighted_distance is None
        weighted = grow_from(unit_weighted(mesh8), [0]).to_clustering()
        assert weighted.is_weighted
        assert np.array_equal(weighted.weighted_distance, weighted.distance.astype(np.float64))


@pytest.mark.parametrize("algorithm", ["cluster", "cluster2", "mpx", "single-batch"])
def test_engine_clusterings_always_validate(algorithm, mesh20, disconnected_graph):
    """Property: every engine-produced decomposition is a valid partition."""
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
