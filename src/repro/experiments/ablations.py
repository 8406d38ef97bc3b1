"""Ablation experiments (A1–A4 in DESIGN.md) and the §3 expander+path example.

These go beyond the paper's published tables and probe the *design choices*
behind CLUSTER:

* **A1 — batch policy**: CLUSTER's progressive halving-batches vs. a
  single-batch strategy that activates all centers up front (i.e. plain
  multi-source BFS from a random τ-subset) vs. MPX, at matched granularity.
  The progressive policy is what lets CLUSTER cover poorly connected regions
  with fresh clusters, keeping the maximum radius small.
* **A2 — τ sweep**: radius and cluster count as a function of τ on graphs
  with known/low doubling dimension, checking the ``R_ALG ≈ ∆ / τ^{1/b}``
  scaling of Lemma 1.
* **A3 — CLUSTER vs CLUSTER2**: cluster count, radius and resulting diameter
  bounds, quantifying the price of CLUSTER2's stronger guarantees.
* **E6 — expander+path**: the Section 3 example where CLUSTER(√n) achieves a
  polylogarithmic radius on a graph of diameter Ω(√n).
* **A4 — k-center quality**: CLUSTER-based k-center vs Gonzalez vs random
  centers.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.baselines.gonzalez import gonzalez_kcenter, random_centers_kcenter
from repro.baselines.mpx import mpx_with_target_clusters
from repro.core.cluster import cluster, cluster_with_target_clusters, single_batch_decomposition
from repro.core.cluster2 import cluster2
from repro.core.diameter import estimate_diameter
from repro.core.kcenter import kcenter
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig, dataset_rng, granularity_for
from repro.experiments.datasets import load_dataset, reference_diameter
from repro.generators.composite import expander_with_path
from repro.utils.rng import as_rng

__all__ = [
    "batch_policy_row",
    "run_tau_sweep",
    "cluster_vs_cluster2_row",
    "run_expander_path_example",
    "kcenter_rows",
    "CLUSTER2_DATASETS",
    "KCENTER_DATASETS",
]

# Seed offsets of the individual ablation parts (added to ``config.seed``).
BATCH_POLICY_OFFSET = 11
TAU_SWEEP_OFFSET = 12
CLUSTER2_OFFSET = 13
EXPANDER_OFFSET = 14
KCENTER_OFFSET = 15

# Default dataset selections of the dataset-restricted parts.
CLUSTER2_DATASETS = ("mesh", "roads-PA-like", "livejournal-like")
KCENTER_DATASETS = ("mesh", "roads-CA-like", "livejournal-like")


def batch_policy_row(
    name: str, *, scale: str = "default", config: ExperimentConfig = DEFAULT_CONFIG
) -> Dict:
    """A1 for one dataset (the per-cell unit of the suite)."""
    rng = dataset_rng(name, offset=BATCH_POLICY_OFFSET, config=config)
    graph = load_dataset(name, scale)
    target = granularity_for(name, graph.num_nodes, config=config)
    ours = cluster_with_target_clusters(graph, target, seed=rng)
    single = single_batch_decomposition(graph, ours.num_clusters, seed=rng)
    mpx = mpx_with_target_clusters(graph, ours.num_clusters, seed=rng)
    return {
        "dataset": name,
        "target_clusters": target,
        "cluster_nC": ours.num_clusters,
        "cluster_r": ours.max_radius,
        "single_batch_nC": single.num_clusters,
        "single_batch_r": single.max_radius,
        "mpx_nC": mpx.num_clusters,
        "mpx_r": mpx.max_radius,
    }


def run_tau_sweep(
    *,
    dataset: str = "mesh",
    scale: str = "default",
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> List[Dict]:
    """A2: radius / cluster count as a function of τ (Lemma 1 scaling check),
    over τ = 1, 2, 4, …, 64."""
    graph = load_dataset(dataset, scale)
    diameter = reference_diameter(dataset, scale)
    rows: List[Dict] = []
    rng = as_rng(config.seed + TAU_SWEEP_OFFSET)
    for tau in (1, 2, 4, 8, 16, 32, 64):
        result = cluster(graph, tau, seed=rng)
        # Lemma 1 predicts R_ALG = O(ceil(∆ / τ^(1/b)) log n) with b = 2 for the mesh.
        predicted = math.ceil(diameter / max(1.0, float(tau) ** 0.5))
        rows.append(
            {
                "dataset": dataset,
                "tau": tau,
                "num_clusters": result.num_clusters,
                "max_radius": result.max_radius,
                "lemma1_scale_b2": predicted,
                "growth_steps": result.growth_steps,
            }
        )
    return rows


def cluster_vs_cluster2_row(
    name: str, *, scale: str = "default", config: ExperimentConfig = DEFAULT_CONFIG
) -> Dict:
    """A3 for one dataset (the per-cell unit of the suite)."""
    rng = dataset_rng(name, offset=CLUSTER2_OFFSET, config=config)
    graph = load_dataset(name, scale)
    true_diameter = reference_diameter(name, scale)
    tau = max(1, granularity_for(name, graph.num_nodes, config=config) // 8)
    plain = cluster(graph, tau, seed=rng)
    refined = cluster2(graph, tau, seed=rng, pilot=plain)
    est_plain = estimate_diameter(graph, clustering=plain)
    est_refined = estimate_diameter(graph, clustering=refined.clustering)
    return {
        "dataset": name,
        "tau": tau,
        "true_diameter": true_diameter,
        "cluster_nC": plain.num_clusters,
        "cluster_r": plain.max_radius,
        "cluster_upper": round(est_plain.upper_bound, 1),
        "cluster2_nC": refined.num_clusters,
        "cluster2_r": refined.max_radius,
        "cluster2_upper": round(est_refined.upper_bound, 1),
        "cluster2_radius_bound": 2 * refined.r_alg * math.ceil(math.log2(max(2, graph.num_nodes))),
    }


def run_expander_path_example(
    *,
    num_nodes: int = 4096,
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> Dict:
    """E6: the §3 expander+path example — CLUSTER(√n) radius ≪ diameter, on a
    4-regular expander."""
    rng = as_rng(config.seed + EXPANDER_OFFSET)
    graph = expander_with_path(num_nodes, degree=4, seed=rng)
    # The paper's example uses τ = √n; at laptop scale we divide by log n so the
    # 8 τ log n stopping threshold of Algorithm 1 stays well below n.
    tau = max(1, math.isqrt(graph.num_nodes) // int(math.log2(graph.num_nodes)))
    result = cluster(graph, tau, seed=rng)
    from repro.graph.traversal import double_sweep

    diameter_lower, _, _ = double_sweep(graph, rng=rng)
    polylog = math.log2(max(2, graph.num_nodes)) ** 2
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "tau": tau,
        "diameter_lower_bound": diameter_lower,
        "num_clusters": result.num_clusters,
        "max_radius": result.max_radius,
        "polylog_reference": round(polylog, 1),
        "radius_much_smaller_than_diameter": result.max_radius * 4 <= diameter_lower,
    }


def kcenter_rows(
    name: str, *, scale: str = "default", config: ExperimentConfig = DEFAULT_CONFIG
) -> List[Dict]:
    """A4 for one dataset at k = 16 and k = 64 (the per-cell unit of the suite)."""
    rng = dataset_rng(name, offset=KCENTER_OFFSET, config=config)
    graph = load_dataset(name, scale)
    rows: List[Dict] = []
    for k in (16, 64):
        ours = kcenter(graph, k, seed=rng)
        greedy = gonzalez_kcenter(graph, k, seed=rng)
        random_pick = random_centers_kcenter(graph, k, seed=rng)
        rows.append(
            {
                "dataset": name,
                "k": k,
                "cluster_radius": ours.radius,
                "cluster_centers_used": ours.k,
                "gonzalez_radius": greedy.radius,
                "random_radius": random_pick.radius,
                "ratio_vs_gonzalez": round(ours.radius / max(1, greedy.radius), 2),
            }
        )
    return rows
