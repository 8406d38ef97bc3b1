"""The library's configuration surface: environment knobs and parameters.

Every ``REPRO_*`` environment variable is a setting nothing else declares, so
``src/`` keeps exactly the four that select real behaviour; knobs that only
tests set, or that select nothing, are private constants or gone.  The
removed parameters below must fail loudly instead of being silently ignored.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import hadi_diameter, mr_bfs_diameter
from repro.core.growth_engine import GrowthEngine
from repro.core.mr_algorithms import mr_estimate_diameter
from repro.core.pipeline import DecompositionPipeline, PipelineConfig
from repro.experiments.config import ExperimentConfig
from repro.generators import mesh_graph
from repro.graph import kernels
from repro.graph.diameter_exact import exact_diameter
from repro.graph.snapshot import SnapshotWriter, save_snapshot
from repro.mapreduce import ArrayPairs, MREngine

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
_PAIRS = ArrayPairs(_ONE, _ONE)

REMOVED = {
    "frontier_expansion(direction=)": lambda: kernels.frontier_expansion(*_ARGS, _ONE, direction="push"),
    "DirectionOptimizer(direction=)": lambda: kernels.DirectionOptimizer(
        *_ARGS, np.full(16, -1), direction="pull"
    ),
    "DirectionOptimizer(alpha=)": lambda: kernels.DirectionOptimizer(*_ARGS, np.full(16, -1), alpha=1.0),
    "DirectionOptimizer(beta=)": lambda: kernels.DirectionOptimizer(*_ARGS, np.full(16, -1), beta=1.0),
    "GrowthEngine(direction=)": lambda: GrowthEngine(_GRAPH, direction="push"),
    "eccentricities(method=)": lambda: kernels.eccentricities(*_ARGS, _ONE, method="loop"),
    "eccentricities(batch=)": lambda: kernels.eccentricities(*_ARGS, _ONE, batch=8),
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
    "MREngine(num_shards=)": lambda: MREngine(backend="vectorized", num_shards=2),
    "mr_bfs_diameter(num_shards=)": lambda: mr_bfs_diameter(_GRAPH, seed=0, num_shards=2),
    "hadi_diameter(num_shards=)": lambda: hadi_diameter(_GRAPH, seed=0, num_shards=2),
    "ExperimentConfig(mr_backend=)": lambda: ExperimentConfig(mr_backend="serial"),
    "ExperimentConfig(mr_shards=)": lambda: ExperimentConfig(mr_shards=2),
    "run_structured_round(mapper=)": lambda: MREngine().run_structured_round(
        _PAIRS, "sum", mapper=lambda batch: batch
    ),
}


@pytest.mark.parametrize("call", sorted(REMOVED))
def test_removed_parameter_rejected(call, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an accepted snapshot call would write here
    with pytest.raises(TypeError):
        REMOVED[call]()
