"""Experiment E5 — Figure 1: robustness to diameter-stretching tails.

Protocol (paper §6.2, third experiment set): take the two small-diameter
social graphs, append a chain of ``c·∆`` extra nodes to a randomly chosen node
(``c = 1, 2, 4, 6, 8, 10`` — we also include ``c = 0`` as the baseline point),
which stretches the diameter by a factor ``≈ c`` without altering the rest of
the structure, and measure the running cost of CLUSTER-based diameter
estimation vs BFS on every variant.

Expected shape (paper Figure 1): BFS cost grows linearly with the tail length
(its round count is Θ(∆)), while CLUSTER's cost is essentially flat — the
decomposition absorbs the tail with a few extra clusters.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.bfs_diameter import mr_bfs_diameter
from repro.core.mr_algorithms import mr_estimate_diameter
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig, dataset_rng, granularity_for
from repro.experiments.datasets import load_dataset, reference_diameter
from repro.generators.composite import tail_family

__all__ = ["figure1_rows", "SEED_OFFSET", "DEFAULT_DATASETS"]

DEFAULT_DATASETS = ("twitter-like", "livejournal-like")

SEED_OFFSET = 5


def figure1_rows(
    name: str, *, scale: str = "default", config: ExperimentConfig = DEFAULT_CONFIG
) -> List[Dict]:
    """The Figure 1 series for one dataset over ``config.tail_multipliers``
    (the per-cell unit of the suite)."""
    rng = dataset_rng(name, offset=SEED_OFFSET, config=config)
    base = load_dataset(name, scale)
    base_diameter = max(1, reference_diameter(name, scale))
    family = tail_family(base, base_diameter, multipliers=config.tail_multipliers, seed=rng)
    target = granularity_for(name, base.num_nodes, coarse=False, config=config)
    rows: List[Dict] = []
    for c, graph in sorted(family.items()):
        ours = mr_estimate_diameter(
            graph,
            target_clusters=target,
            seed=rng,
            cost_model=config.cost_model,
        )
        bfs = mr_bfs_diameter(
            graph,
            seed=rng,
            cost_model=config.cost_model,
        )
        rows.append(
            {
                "dataset": name,
                "tail_multiplier": c,
                "nodes": graph.num_nodes,
                "stretched_diameter_lower": bfs.lower_bound,
                "cluster_rounds": ours.rounds,
                "cluster_time": round(ours.simulated_time, 1),
                "cluster_estimate": round(ours.estimate.upper_bound, 1),
                "bfs_rounds": bfs.metrics.rounds,
                "bfs_time": round(bfs.simulated_time, 1),
                "bfs_estimate": bfs.estimate,
            }
        )
    return rows
