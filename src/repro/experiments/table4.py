"""Experiment E4 — Table 4: CLUSTER vs BFS vs HADI running "time".

Protocol (paper §6.2, second experiment set): for every benchmark graph run
the three diameter estimators and compare their cost and their estimate.

On the paper's 16-host Spark cluster "cost" is wall-clock seconds; on a
single machine the honest equivalents are the quantities the wall-clock time
is made of in a round-synchronous system — the number of MR rounds, the
shuffled communication volume, and the simulated time
``round_latency · rounds + pair_cost · pairs`` of the configured cost model
(see DESIGN.md, substitution table).  All three algorithms are metered by the
same :mod:`repro.mapreduce` engine, so the comparison is apples to apples.

Expected shape (paper Table 4): HADI needs Θ(∆) rounds each shuffling Θ(m)
data and is slowest everywhere (orders of magnitude on the road networks);
BFS also needs Θ(∆) rounds but only Θ(m) aggregate communication, so it is
competitive on the small-diameter social graphs and much slower than CLUSTER
on the long-diameter graphs; CLUSTER's round count is essentially independent
of ∆.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines.bfs_diameter import mr_bfs_diameter
from repro.baselines.hadi import hadi_diameter
from repro.core.mr_algorithms import mr_estimate_diameter
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig, dataset_rng, granularity_for
from repro.experiments.datasets import dataset_names, load_dataset, reference_diameter

__all__ = ["run_table4", "table4_row", "SEED_OFFSET"]

SEED_OFFSET = 4


def table4_row(
    name: str,
    *,
    scale: str = "default",
    config: ExperimentConfig = DEFAULT_CONFIG,
    include_hadi: bool = True,
    rng=None,
) -> Dict:
    """The Table 4 row for one dataset (the per-cell unit of the suite)."""
    if rng is None:
        rng = dataset_rng(name, offset=SEED_OFFSET, config=config)
    graph = load_dataset(name, scale)
    true_diameter = reference_diameter(name, scale)
    target = granularity_for(name, graph.num_nodes, coarse=False, config=config)

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

    row: Dict = {
        "dataset": name,
        "true_diameter": true_diameter,
        "cluster_estimate": round(ours.estimate.upper_bound, 1),
        "cluster_rounds": ours.rounds,
        "cluster_pairs": ours.shuffled_pairs,
        "cluster_time": round(ours.simulated_time, 1),
        "bfs_estimate": bfs.estimate,
        "bfs_rounds": bfs.metrics.rounds,
        "bfs_pairs": bfs.metrics.shuffled_pairs,
        "bfs_time": round(bfs.simulated_time, 1),
    }
    if include_hadi:
        hadi = hadi_diameter(
            graph,
            num_registers=config.hadi_registers,
            seed=rng,
            cost_model=config.cost_model,
            max_iterations=4 * max(1, true_diameter),
        )
        row.update(
            {
                "hadi_estimate": hadi.estimate,
                "hadi_rounds": hadi.metrics.rounds,
                "hadi_pairs": hadi.metrics.shuffled_pairs,
                "hadi_time": round(hadi.simulated_time, 1),
            }
        )
    return row


def run_table4(
    *,
    scale: str = "default",
    datasets: Optional[Sequence[str]] = None,
    config: ExperimentConfig = DEFAULT_CONFIG,
    include_hadi: bool = True,
) -> List[Dict]:
    """Compute the Table 4 rows.

    ``include_hadi=False`` skips the (deliberately slow) HADI baseline, which
    is convenient for smoke runs.
    """
    names = list(datasets) if datasets is not None else dataset_names()
    return [
        table4_row(name, scale=scale, config=config, include_hadi=include_hadi)
        for name in names
    ]
