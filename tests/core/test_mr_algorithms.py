"""Unit tests for the MR-model drivers (round / communication accounting)."""

from __future__ import annotations

import pytest

from repro.baselines.bfs_diameter import mr_bfs_diameter
from repro.core.cluster import cluster
from repro.core.mr_algorithms import (
    charge_clustering_rounds,
    charge_quotient_rounds,
    mr_estimate_diameter,
)
from repro.core.pipeline import DecompositionPipeline, PipelineConfig
from repro.generators import mesh_graph, path_graph
from repro.graph.builders import add_path
from repro.graph.diameter_exact import exact_diameter
from repro.mapreduce.cost import CostModel
from repro.mapreduce.engine import MREngine
from repro.mapreduce.model import MRConstraintViolation, MRModel


class TestChargeRounds:
    def test_rounds_match_trace(self, mesh20):
        clustering = cluster(mesh20, 2, seed=0)
        engine = MREngine()
        charge_clustering_rounds(engine, clustering)
        expected = clustering.growth_steps + len(clustering.iterations)
        assert engine.metrics.rounds == expected

    def test_communication_includes_arcs(self, mesh20):
        clustering = cluster(mesh20, 2, seed=1)
        engine = MREngine()
        charge_clustering_rounds(engine, clustering)
        total_arcs = sum(step.arcs_scanned for step in clustering.step_log)
        assert engine.metrics.shuffled_pairs >= total_arcs

    def test_quotient_rounds_added(self, mesh20):
        engine = MREngine()
        charge_quotient_rounds(engine, mesh20, num_quotient_edges=50)
        assert engine.metrics.rounds >= 2

    def test_quotient_local_memory_enforced(self, mesh20):
        model = MRModel(local_memory=10, enforce=True)
        engine = MREngine(model)
        with pytest.raises(MRConstraintViolation):
            charge_quotient_rounds(engine, mesh20, num_quotient_edges=500)


class TestMRCluster:
    def test_report_fields(self, mesh20):
        report = mr_estimate_diameter(mesh20, tau=2, seed=2)
        assert report.estimate.clustering is report.clustering
        assert report.rounds > 0
        assert report.shuffled_pairs > 0
        assert report.simulated_time > 0
        report.clustering.validate(mesh20)

    def test_cost_model_scaling(self, mesh20):
        cheap = mr_estimate_diameter(mesh20, tau=2, seed=3, cost_model=CostModel(0.1, 1e-9))
        pricey = mr_estimate_diameter(mesh20, tau=2, seed=3, cost_model=CostModel(10.0, 1e-9))
        assert pricey.simulated_time > cheap.simulated_time


class TestMREstimateDiameter:
    def test_estimate_valid_and_metered(self, mesh20):
        report = mr_estimate_diameter(mesh20, tau=4, seed=4)
        true_diameter = exact_diameter(mesh20)
        assert report.estimate is not None
        assert report.estimate.lower_bound <= true_diameter <= report.estimate.upper_bound
        assert report.rounds > 0

    def test_rounds_scale_with_radius_not_diameter(self):
        """The decomposition-based estimator's round count stays nearly flat as
        the diameter is stretched by a tail, while BFS rounds grow linearly —
        this is the crux of Figure 1."""
        base = mesh_graph(12, 12)
        stretched = add_path(base, 150, attach_to=0)
        ours_base = mr_estimate_diameter(base, target_clusters=20, seed=5)
        ours_big = mr_estimate_diameter(stretched, target_clusters=20, seed=5)
        bfs_base = mr_bfs_diameter(base, seed=5)
        bfs_big = mr_bfs_diameter(stretched, seed=5)
        bfs_growth = bfs_big.metrics.rounds - bfs_base.metrics.rounds
        ours_growth = ours_big.rounds - ours_base.rounds
        assert bfs_growth >= 100
        assert ours_growth < bfs_growth / 2

    def test_cluster2_variant(self, mesh20):
        report = DecompositionPipeline(mesh20, PipelineConfig(method="cluster2", tau=2, seed=6)).mr_report()
        assert report.estimate.lower_bound <= exact_diameter(mesh20) <= report.estimate.upper_bound

    def test_local_memory_enforcement_optional(self, mesh20):
        """A recording model lets the run complete and notes the oversized quotient."""
        model = MRModel(local_memory=8, enforce=False)
        report = mr_estimate_diameter(mesh20, tau=2, seed=7, model=model)
        assert report.rounds > 0
        assert len(model.violations) == 1


class TestQuotientMemoryCheck:
    """Theorem 4: the quotient-diameter round runs on one reducer, so the
    quotient must fit in M_L; the model's ``enforce`` picks raise or record."""

    def test_recorded_by_a_recording_model(self):
        graph = mesh_graph(60, 60)
        model = MRModel.for_graph(graph.num_nodes, graph.num_edges, enforce=False)
        mr_estimate_diameter(graph, tau=16, seed=0, model=model)
        assert model.violations == ["reducer received 7928 pairs, exceeding M_L=496"]

    def test_raised_by_an_enforcing_model(self):
        graph = mesh_graph(60, 60)
        model = MRModel.for_graph(graph.num_nodes, graph.num_edges)
        with pytest.raises(MRConstraintViolation, match="reducer received 7928 pairs"):
            mr_estimate_diameter(graph, tau=16, seed=0, model=model)

    def test_silent_on_the_default_model(self, mesh20):
        engine = MREngine()
        charge_quotient_rounds(engine, mesh20, num_quotient_edges=10**6)
        assert engine.model.violations == []
