"""The ``pipeline`` experiment: one end-to-end decomposition pipeline per dataset.

Runs the :class:`~repro.core.pipeline.DecompositionPipeline` (decompose →
quotient → diameter bounds → MR accounting) on each benchmark graph with the
configured decomposition method, reporting per-stage wall-clock timings next
to the quality numbers.  This is both a smoke test of the full serving path
and the CLI surface for comparing decomposition methods
(``--method cluster|cluster2|mpx|single-batch|weighted``) under identical
downstream stages::

    python -m repro.experiments pipeline --method mpx --datasets mesh
    python -m repro.experiments pipeline --method weighted --scale small

The ``weighted`` method attaches seeded uniform edge weights to the benchmark
graphs (:func:`repro.generators.attach_weights`) and reports the §7 weighted
diameter bounds instead of the hop bounds.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig, dataset_rng, granularity_for
from repro.experiments.datasets import load_dataset, reference_diameter
from repro.generators import attach_weights

__all__ = ["pipeline_row", "SEED_OFFSET"]

SEED_OFFSET = 23


def pipeline_row(
    name: str, *, scale: str = "default", config: ExperimentConfig = DEFAULT_CONFIG
) -> Dict:
    """One end-to-end pipeline run on one dataset (the per-cell unit of the suite)."""
    rng = dataset_rng(name, offset=SEED_OFFSET, config=config)
    graph = load_dataset(name, scale)
    if config.decomposition_method == "weighted":
        graph = attach_weights(graph, "uniform", seed=rng)
    target = granularity_for(name, graph.num_nodes, config=config)
    pipeline = config.pipeline(graph, target_clusters=target, seed=rng)
    result = pipeline.run()
    report = pipeline.mr_report(cost_model=config.cost_model)
    return {
        "dataset": name,
        "diameter": reference_diameter(name, scale),
        **result.summary(),
        "mr_rounds": report.rounds,
        "shuffled_pairs": report.shuffled_pairs,
        "sim_time_s": round(report.simulated_time, 1),
    }
