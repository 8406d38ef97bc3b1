"""Experiment E2 — Table 2: CLUSTER vs MPX decomposition quality.

Protocol (paper §6.1): for every benchmark graph, pick a target decomposition
granularity (≈ n/1000 clusters for small-diameter graphs, ≈ n/100 for
large-diameter graphs — scaled to our stand-in sizes via
:mod:`repro.experiments.config`), tune CLUSTER's τ and MPX's β so both land
near that granularity — giving MPX the paper's "slight advantage" of a
comparable-but-larger cluster count — and compare:

* ``n_C``  — number of clusters,
* ``m_C``  — number of quotient-graph edges,
* ``r``    — maximum cluster radius (the quantity CLUSTER optimizes).

Expected shape (paper Table 2): CLUSTER's radius is smaller on every graph,
dramatically so on the long-diameter road/mesh graphs (31 vs 61 on roads-CA),
while MPX often produces fewer inter-cluster edges on the social graphs.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.mpx import mpx_with_target_clusters
from repro.core.cluster import cluster_with_target_clusters
from repro.core.quotient import build_quotient_graph
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig, dataset_rng, granularity_for
from repro.experiments.datasets import load_dataset

__all__ = ["table2_row", "SEED_OFFSET"]

SEED_OFFSET = 0


def table2_row(
    name: str, *, scale: str = "default", config: ExperimentConfig = DEFAULT_CONFIG
) -> Dict:
    """The Table 2 row for one dataset (the per-cell unit of the suite)."""
    rng = dataset_rng(name, offset=SEED_OFFSET, config=config)
    graph = load_dataset(name, scale)
    target = granularity_for(name, graph.num_nodes, config=config)
    ours = cluster_with_target_clusters(graph, target, seed=rng)
    # The paper gives MPX a comparable but *larger* number of clusters.
    mpx = mpx_with_target_clusters(
        graph, max(target, ours.num_clusters), seed=rng, require_at_least_target=True
    )
    row: Dict = {"dataset": name, "target_clusters": target}
    for label, clustering in (("cluster", ours), ("mpx", mpx)):
        row[f"{label}_nC"] = clustering.num_clusters
        row[f"{label}_mC"] = build_quotient_graph(graph, clustering).num_edges
        row[f"{label}_r"] = clustering.max_radius
    row["radius_ratio_mpx_over_cluster"] = float(mpx.max_radius) / max(1.0, float(ours.max_radius))
    return row
