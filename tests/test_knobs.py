"""The library's configuration surface: environment knobs and parameters.

Every ``REPRO_*`` environment variable is a setting nothing else declares, so
``src/`` keeps exactly the four that select real behaviour; knobs that only
tests set, or that select nothing, are private constants or gone.  The
removed parameters below must fail loudly instead of being silently ignored.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import repro.graph
import repro.mapreduce

from repro.baselines import hadi_diameter, mpx_decomposition, mr_bfs_diameter
from repro.core.cluster import cluster
from repro.core.clustering import Clustering
from repro.core.diameter import estimate_diameter
from repro.core.growth_engine import GrowthEngine
from repro.core.mr_algorithms import mr_estimate_diameter
from repro.core.oracle import build_distance_oracle
from repro.core.pipeline import DecompositionPipeline, PipelineConfig
from repro.experiments import ablations, figure1, pipeline_stages, table2, table3, table4
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import configure_dataset_cache
from repro.experiments.store import DatasetCache
from repro.experiments.suite import SuiteResult
from repro.generators import mesh_graph
from repro.graph import builders, kernels, traversal
from repro.graph.diameter_exact import exact_diameter
from repro.graph.snapshot import SnapshotWriter, save_snapshot
from repro.graph.traversal import BFSResult
from repro.mapreduce import MREngine, MRMetrics
from repro.serving import GraphService

SRC = Path(__file__).resolve().parents[1] / "src"


def test_repro_env_names_in_src():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    assert names == {
        "REPRO_KERNEL_STATS",
        "REPRO_FAULT_PLAN",
        "REPRO_DATASET_CACHE",
        "REPRO_MR_NO_FORK",
    }


def test_pipeline_config_has_no_backend():
    fields = set(PipelineConfig.__dataclass_fields__)
    assert not fields & {"mr_backend", "mr_shards"}


_GRAPH = mesh_graph(4, 4)
_ONE = np.asarray([0], dtype=np.int64)
_ARGS = (_GRAPH.indptr, _GRAPH.indices)
_WEIGHTS = np.ones(_GRAPH.indices.size)

REMOVED = {
    "frontier_expansion(direction=)": lambda: kernels.frontier_expansion(*_ARGS, _ONE, direction="push"),
    "frontier_expansion(on_level=)": lambda: kernels.frontier_expansion(*_ARGS, _ONE, on_level=print),
    "msbfs_levels(max_depth=)": lambda: kernels.msbfs_levels(*_ARGS, _ONE, max_depth=2),
    "DirectionOptimizer(direction=)": lambda: kernels.DirectionOptimizer(
        *_ARGS, np.full(16, -1), direction="pull"
    ),
    "DirectionOptimizer(alpha=)": lambda: kernels.DirectionOptimizer(*_ARGS, np.full(16, -1), alpha=1.0),
    "DirectionOptimizer(beta=)": lambda: kernels.DirectionOptimizer(*_ARGS, np.full(16, -1), beta=1.0),
    "GrowthEngine(direction=)": lambda: GrowthEngine(_GRAPH, direction="push"),
    "GrowthEngine(tie_break=<name>)": lambda: GrowthEngine(_GRAPH, tie_break="arbitrary"),
    "mpx_decomposition(tie_break=)": lambda: mpx_decomposition(_GRAPH, 0.5, seed=0, tie_break="shifted-start"),
    "cluster(max_iterations=)": lambda: cluster(_GRAPH, 1, seed=0, max_iterations=3),
    "delta_stepping(delta=)": lambda: kernels.delta_stepping(*_ARGS, _WEIGHTS, _ONE, delta=1.0),
    "exact_diameter(all_pairs_threshold=)": lambda: exact_diameter(_GRAPH, all_pairs_threshold=10),
    "claim_first() without workspace": lambda: kernels.claim_first(_ONE, _ONE),
    "claim_min() without workspace": lambda: kernels.claim_min(_ONE, _ONE, np.zeros(1)),
    "PipelineConfig(mr_backend=)": lambda: PipelineConfig(mr_backend="process"),
    "PipelineConfig(mr_shards=)": lambda: PipelineConfig(mr_shards=2),
    "mr_report(include_quotient=)": lambda: DecompositionPipeline(_GRAPH, tau=1, seed=0).mr_report(
        include_quotient=False
    ),
    "mr_estimate_diameter(backend=)": lambda: mr_estimate_diameter(_GRAPH, tau=1, backend="serial"),
    "mr_estimate_diameter(num_shards=)": lambda: mr_estimate_diameter(_GRAPH, tau=1, num_shards=2),
    "save_snapshot(version=)": lambda: save_snapshot(_GRAPH, "unused.snap", version=1),
    "SnapshotWriter(version=)": lambda: SnapshotWriter("unused.snap", 1, 0, version=1),
    "MREngine(num_shards=)": lambda: MREngine(num_shards=2),
    "MREngine(backend=)": lambda: MREngine(backend="serial"),
    "mr_bfs_diameter(num_shards=)": lambda: mr_bfs_diameter(_GRAPH, seed=0, num_shards=2),
    "mr_bfs_diameter(backend=)": lambda: mr_bfs_diameter(_GRAPH, seed=0, backend="serial"),
    "hadi_diameter(num_shards=)": lambda: hadi_diameter(_GRAPH, seed=0, num_shards=2),
    "hadi_diameter(backend=)": lambda: hadi_diameter(_GRAPH, seed=0, backend="vectorized"),
    "ExperimentConfig(mr_backend=)": lambda: ExperimentConfig(mr_backend="serial"),
    "ExperimentConfig(mr_shards=)": lambda: ExperimentConfig(mr_shards=2),
    "run_structured_round(mapper=)": lambda: MREngine().run_structured_round(
        (_ONE, _ONE), "sum", mapper=lambda batch: batch
    ),
    "run_structured_round(label=)": lambda: MREngine().run_structured_round((_ONE, _ONE), "sum", label="round"),
    "charge_rounds(label=)": lambda: MREngine().charge_rounds([1], label="charged"),
    "charge_rounds(count, pairs_per_round=)": lambda: MREngine().charge_rounds(3, pairs_per_round=5),
    "MRMetrics.record_round(label=)": lambda: MRMetrics().record_round(
        pairs_shuffled=1, max_reducer_input=1, live_pairs=1, label="round"
    ),
    "MRMetrics.record_charged_rounds(label=)": lambda: MRMetrics().record_charged_rounds(_ONE, label="charged"),
    "DatasetCache.diameter(num_sweeps=)": lambda: DatasetCache().diameter(
        "mesh", "small", num_sweeps=4, compute=lambda: 1
    ),
    "DatasetCache(memory_items=)": lambda: DatasetCache(memory_items=16),
    "DatasetCache(mmap=)": lambda: DatasetCache(mmap=False),
    "configure_dataset_cache(memory_items=)": lambda: configure_dataset_cache(memory_items=16),
    "table2_row(rng=)": lambda: table2.table2_row("mesh", scale="small", rng=0),
    "table3_row(rng=)": lambda: table3.table3_row("mesh", scale="small", rng=0),
    "table4_row(rng=)": lambda: table4.table4_row("mesh", scale="small", rng=0),
    "figure1_rows(rng=)": lambda: figure1.figure1_rows("twitter-like", scale="small", rng=0),
    "pipeline_row(rng=)": lambda: pipeline_stages.pipeline_row("mesh", scale="small", rng=0),
    "batch_policy_row(rng=)": lambda: ablations.batch_policy_row("mesh", scale="small", rng=0),
    "cluster_vs_cluster2_row(rng=)": lambda: ablations.cluster_vs_cluster2_row("mesh", scale="small", rng=0),
    "kcenter_rows(rng=)": lambda: ablations.kcenter_rows("mesh", scale="small", rng=0),
    "estimate_diameter(use_cluster2=)": lambda: estimate_diameter(_GRAPH, tau=1, seed=0, use_cluster2=True),
    "estimate_diameter(weighted=)": lambda: estimate_diameter(_GRAPH, tau=1, seed=0, weighted=False),
    "mr_estimate_diameter(use_cluster2=)": lambda: mr_estimate_diameter(_GRAPH, tau=1, seed=0, use_cluster2=True),
    "mr_estimate_diameter(enforce_local_memory=)": lambda: mr_estimate_diameter(
        _GRAPH, tau=1, seed=0, enforce_local_memory=True
    ),
    "build_distance_oracle(seed=)": lambda: build_distance_oracle(
        _GRAPH, clustering=cluster(_GRAPH, 1, seed=0), seed=0
    ),
    "GraphService.build(clustering=)": lambda: GraphService.build(_GRAPH, clustering=cluster(_GRAPH, 1, seed=0)),
    "DecompositionPipeline(beta=)": lambda: DecompositionPipeline(_GRAPH, method="mpx", beta=0.5),
    "DecompositionPipeline(weighted_quotient=)": lambda: DecompositionPipeline(_GRAPH, weighted_quotient=False),
    "DecompositionPipeline(enforce_local_memory=)": lambda: DecompositionPipeline(_GRAPH, enforce_local_memory=True),
}

# Calls whose method went with the parameter: they fail at the lookup.
_METHOD_REMOVED = {
    "run_structured_round(mapper=)",
    "run_structured_round(label=)",
    "MRMetrics.record_round(label=)",
}


_OWNERS = {
    "graph": repro.graph,
    "builders": builders,
    "kernels": kernels,
    "traversal": traversal,
    "structured": "repro.mapreduce.structured",
    "mapreduce": repro.mapreduce,
    "MREngine": MREngine(),
    "MRMetrics": MRMetrics(),
    "Clustering": Clustering,
    "BFSResult": BFSResult,
    "SuiteResult": SuiteResult,
}


@pytest.mark.parametrize(
    "name",
    [
        "graph.symmetrize_edges",
        "builders.symmetrize_edges",
        "kernels.eccentricities",
        "kernels.MSBFS_TILE",
        "traversal.eccentricity",
        "structured.StructuredReducer",
        "structured.resolve_structured_reducer",
        "structured._dict_codes",
        "mapreduce.StructuredReducer",
        "mapreduce.ArrayPairs",
        "mapreduce.StructuredOutcome",
        "mapreduce.structured",
        "mapreduce.backends",
        "MREngine.charge_rounds_batch",
        "MREngine.run_structured_round",
        "MRMetrics.per_label",
        "MRMetrics.record_round",
        "MRMetrics.as_dict",
        "MRMetrics.max_reducer_input",
        "MRMetrics.max_live_pairs",
        "Clustering.radii",
        "BFSResult.reached",
        "SuiteResult.experiments",
    ],
)
def test_removed_names_are_gone(name):
    owner, attribute = name.split(".")
    target = _OWNERS[owner]
    if isinstance(target, str):
        # An owner named by its module path: a deleted module's names are gone with it.
        if importlib.util.find_spec(target) is None:
            return
        target = importlib.import_module(target)
    assert not hasattr(target, attribute)
    # A package's submodule is an attribute only once imported: look for its file.
    if hasattr(target, "__path__"):
        assert importlib.util.find_spec(f"{target.__name__}.{attribute}") is None


@pytest.mark.parametrize("call", sorted(REMOVED))
def test_removed_parameter_rejected(call, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an accepted snapshot call would write here
    with pytest.raises(AttributeError if call in _METHOD_REMOVED else TypeError):
        REMOVED[call]()
