"""Tests for the DecompositionPipeline and its experiment-config threading."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.diameter import estimate_diameter
from repro.core.mr_algorithms import mr_estimate_diameter
from repro.core.pipeline import DecompositionPipeline, PipelineConfig
from repro.experiments.config import ExperimentConfig
from repro.generators import mesh_graph
from repro.graph.csr import CSRGraph
from repro.weighted.wgraph import WeightedCSRGraph


@pytest.fixture
def mesh16():
    return mesh_graph(16, 16)


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown pipeline method"):
            PipelineConfig(method="bogus")

    def test_tau_and_target_conflict(self):
        with pytest.raises(ValueError, match="at most one"):
            PipelineConfig(tau=2, target_clusters=10)

    def test_overrides_applied(self, mesh16):
        pipe = DecompositionPipeline(mesh16, PipelineConfig(), method="mpx", seed=1)
        assert pipe.config.method == "mpx"


class TestStageCaching:
    def test_decompose_cached(self, mesh16):
        pipe = DecompositionPipeline(mesh16, PipelineConfig(tau=2, seed=5))
        assert pipe.decompose() is pipe.decompose()

    def test_quotient_cached_per_flavour(self, mesh16):
        pipe = DecompositionPipeline(mesh16, PipelineConfig(tau=2, seed=5))
        assert pipe.quotient(weighted=True) is pipe.quotient(weighted=True)
        assert pipe.quotient(weighted=False) is not pipe.quotient(weighted=True)

    def test_diameter_cached_and_timed(self, mesh16):
        pipe = DecompositionPipeline(mesh16, PipelineConfig(tau=2, seed=5))
        estimate = pipe.diameter()
        assert estimate is pipe.diameter()
        assert "decompose" in pipe.timings
        assert "diameter" in pipe.timings

    def test_timings_are_disjoint_per_stage(self, mesh16):
        pipe = DecompositionPipeline(mesh16, PipelineConfig(tau=2, seed=5))
        pipe.run()
        pipe.mr_report()
        expected = {
            "decompose",
            "quotient[unweighted]",
            "quotient[weighted]",
            "diameter",
            "mr-accounting",
        }
        assert expected <= set(pipe.timings)
        # mr_report-first pipelines must still attribute the decomposition to
        # its own stage instead of folding it into "mr-accounting".
        fresh = DecompositionPipeline(mesh16, PipelineConfig(tau=2, seed=5))
        fresh.mr_report()
        assert "decompose" in fresh.timings

    def test_injected_clustering_skips_stage_one(self, mesh16):
        clustering = estimate_diameter(mesh16, tau=2, seed=5).clustering
        pipe = DecompositionPipeline(mesh16, clustering=clustering)
        assert pipe.decompose() is clustering
        assert "decompose" not in pipe.timings


class TestWrapperEquivalence:
    def test_estimate_diameter_matches_pipeline(self, mesh16):
        direct = estimate_diameter(mesh16, tau=2, seed=42)
        pipe = DecompositionPipeline(mesh16, PipelineConfig(tau=2, seed=42)).diameter()
        assert direct.lower_bound == pipe.lower_bound
        assert direct.upper_bound == pipe.upper_bound
        assert direct.radius == pipe.radius
        assert np.array_equal(direct.clustering.assignment, pipe.clustering.assignment)

    def test_mr_report_matches_mr_estimate_diameter(self, mesh16):
        report = mr_estimate_diameter(mesh16, tau=2, seed=42)
        pipe = DecompositionPipeline(mesh16, PipelineConfig(tau=2, seed=42))
        pipe_report = pipe.mr_report()
        assert report.rounds == pipe_report.rounds
        assert report.shuffled_pairs == pipe_report.shuffled_pairs
        assert "mr-accounting" in pipe.timings


class TestMethods:
    @pytest.mark.parametrize("method", ["cluster", "cluster2", "mpx", "single-batch"])
    def test_every_method_runs_end_to_end(self, mesh16, method):
        result = DecompositionPipeline(
            mesh16, PipelineConfig(method=method, seed=7)
        ).run()
        assert result.method == method
        result.clustering.validate(mesh16)
        assert result.estimate.lower_bound <= result.estimate.upper_bound
        summary = result.summary()
        assert summary["method"] == method
        assert any(key.startswith("t_") for key in summary)

    def test_mpx_with_target_clusters(self, mesh16):
        result = DecompositionPipeline(
            mesh16, PipelineConfig(method="mpx", target_clusters=20, seed=7)
        ).run()
        assert result.clustering.algorithm == "mpx"

    def test_cluster2_with_target_clusters_runs_cluster2(self, mesh16):
        clustering = DecompositionPipeline(
            mesh16, PipelineConfig(method="cluster2", target_clusters=20, seed=7)
        ).decompose()
        assert clustering.algorithm == "cluster2"


class TestExperimentConfigThreading:
    def test_config_pipeline_uses_method(self, mesh16):
        # The pipeline's MR accounting charges rounds and takes no backend.
        config = ExperimentConfig(decomposition_method="mpx")
        pipe = config.pipeline(mesh16, seed=3)
        assert pipe.config.method == "mpx"
        assert pipe.config == PipelineConfig(method="mpx", seed=3)
        assert pipe.run().method == "mpx"


class TestWeightedMethod:
    def test_disconnected_graph_rejected(self):
        # Two isolated nodes: the quotient has two clusters and no edge, so
        # the weighted diameter is infinite rather than 2·R_w + 0.
        graph = CSRGraph.from_edges(np.zeros((0, 2), dtype=np.int64), num_nodes=2)
        pipe = DecompositionPipeline(graph, method="weighted", tau=1)
        with pytest.raises(ValueError, match="disconnected"):
            pipe.diameter()

    def test_weighted_method_on_weighted_graph(self):
        wgraph = mesh_graph(12, 12, weights="uniform", seed=4)
        pipe = DecompositionPipeline(wgraph, PipelineConfig(method="weighted", tau=2, seed=9))
        result = pipe.run()
        assert result.method == "weighted"
        clustering = result.clustering
        assert clustering.weighted_distance is not None
        clustering.validate(wgraph)
        estimate = result.estimate
        assert estimate.lower_bound <= estimate.upper_bound + 1e-9
        assert estimate.weighted_radius == clustering.weighted_radius
        assert estimate.num_quotient_edges >= 0
        summary = result.summary()
        assert summary["method"] == "weighted"
        assert summary["radius"] == pytest.approx(clustering.weighted_radius)

    def test_weighted_method_lifts_unweighted_input(self, mesh16):
        pipe = DecompositionPipeline(mesh16, PipelineConfig(method="weighted", tau=2, seed=9))
        assert pipe.graph.weights is not None
        estimate = pipe.diameter()
        # Unit weights: the weighted bounds must sandwich the hop diameter.
        assert estimate.lower_bound <= 30.0 <= estimate.upper_bound

    def test_weighted_method_with_target_clusters(self):
        wgraph = mesh_graph(14, 14, weights="uniform", seed=5)
        clustering = DecompositionPipeline(
            wgraph, PipelineConfig(method="weighted", target_clusters=16, seed=3)
        ).decompose()
        assert clustering.algorithm == "weighted-cluster"
        assert 4 <= clustering.num_clusters <= 64

    def test_weighted_quotient_flavours(self):
        wgraph = mesh_graph(10, 10, weights="uniform", seed=6)
        pipe = DecompositionPipeline(wgraph, PipelineConfig(method="weighted", tau=2, seed=1))
        weighted_q = pipe.quotient(weighted=True)
        hop_q = pipe.quotient(weighted=False)
        assert weighted_q.is_weighted
        assert not hop_q.is_weighted
        # Same clustering ⇒ same quotient topology, different edge metrics.
        assert weighted_q.num_nodes == hop_q.num_nodes

    def test_weighted_mr_report(self):
        wgraph = mesh_graph(10, 10, weights="uniform", seed=7)
        pipe = DecompositionPipeline(wgraph, PipelineConfig(method="weighted", tau=2, seed=2))
        report = pipe.mr_report()
        assert report.rounds > 0
        assert report.estimate is pipe.diameter()

    def test_weighted_method_via_experiment_config(self):
        config = ExperimentConfig(decomposition_method="weighted")
        wgraph = mesh_graph(10, 10, weights="uniform", seed=8)
        result = config.pipeline(wgraph, tau=2, seed=5).run()
        assert result.method == "weighted"


class TestWeightedMRAccounting:
    def test_weighted_runs_are_charged(self):
        wgraph = WeightedCSRGraph.random_weights(
            mesh_graph(14, 14), rng=np.random.default_rng(6)
        )
        report = DecompositionPipeline(wgraph, method="weighted", tau=1, seed=11).mr_report()
        assert report.estimate.lower_bound <= report.estimate.upper_bound
        assert report.rounds > 0
        assert report.shuffled_pairs > 0
        assert report.simulated_time > 0
        # The charged rounds come from the unified growth trace.
        assert report.clustering.step_log
        assert report.clustering.iterations
