"""Experiment E3 — Table 3: quality of the diameter approximation.

Protocol (paper §6.2, first experiment set): for every benchmark graph run
the decomposition-based diameter estimator at two granularities (coarser and
finer) and report, for each, the quotient-graph size (``n_C``, ``m_C``), the
upper-bound estimate ``∆'`` (weighted-quotient bound ``∆'' = 2R + ∆'_C``, as
the paper's implementation does) and the reference diameter ``∆``.

Expected shape (paper Table 3): ``∆'/∆ < 2`` on every graph, the ratio tends
to *decrease* on sparse long-diameter graphs, and the approximation quality is
essentially independent of the granularity.
"""

from __future__ import annotations

from typing import Dict

from repro.core.diameter import estimate_diameter
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig, dataset_rng, granularity_for
from repro.experiments.datasets import load_dataset, reference_diameter

__all__ = ["table3_row", "SEED_OFFSET"]

SEED_OFFSET = 3


def table3_row(
    name: str, *, scale: str = "default", config: ExperimentConfig = DEFAULT_CONFIG
) -> Dict:
    """The Table 3 row for one dataset (the per-cell unit of the suite)."""
    rng = dataset_rng(name, offset=SEED_OFFSET, config=config)
    graph = load_dataset(name, scale)
    true_diameter = reference_diameter(name, scale)
    row: Dict = {"dataset": name, "true_diameter": true_diameter}
    for label, coarse in (("coarse", True), ("fine", False)):
        target = granularity_for(name, graph.num_nodes, coarse=coarse, config=config)
        estimate = estimate_diameter(graph, target_clusters=target, seed=rng)
        row[f"{label}_nC"] = estimate.num_clusters
        row[f"{label}_mC"] = estimate.num_quotient_edges
        row[f"{label}_lower"] = estimate.lower_bound
        row[f"{label}_upper"] = round(estimate.upper_bound, 1)
        row[f"{label}_ratio"] = round(estimate.approximation_ratio(true_diameter), 3)
    return row
