"""Ablation benchmarks (A1–A3 and the §3 expander+path example), one per part."""

from __future__ import annotations

from repro.experiments.ablations import (
    CLUSTER2_DATASETS,
    batch_policy_row,
    cluster_vs_cluster2_row,
    run_expander_path_example,
    run_tau_sweep,
)
from repro.experiments.datasets import dataset_names


def test_batch_policy_ablation(benchmark, scale, show_table):
    """A1 — CLUSTER's progressive batches vs single-batch growth vs MPX."""
    rows = benchmark.pedantic(
        lambda: [batch_policy_row(name, scale=scale) for name in dataset_names()], rounds=1, iterations=1
    )
    show_table(rows, "A1 — batch-policy ablation (max radius)")
    # The progressive policy is never worse than the single-batch strawman by
    # more than a small additive slack, and typically better on road graphs.
    for row in rows:
        assert row["cluster_r"] <= row["single_batch_r"] + 3, row["dataset"]


def test_tau_sweep(benchmark, scale, show_table):
    """A2 — Lemma 1 scaling: radius shrinks and cluster count grows with τ."""
    rows = benchmark.pedantic(
        lambda: run_tau_sweep(dataset="mesh", scale=scale), rounds=1, iterations=1
    )
    show_table(rows, "A2 — tau sweep on the mesh (b = 2)")
    radii = [row["max_radius"] for row in rows]
    clusters = [row["num_clusters"] for row in rows]
    assert radii[0] >= radii[-1]
    assert clusters[-1] >= clusters[0]


def test_cluster_vs_cluster2(benchmark, scale, show_table):
    """A3 — CLUSTER2's guarantees cost extra clusters but keep valid bounds."""
    rows = benchmark.pedantic(
        lambda: [cluster_vs_cluster2_row(name, scale=scale) for name in CLUSTER2_DATASETS],
        rounds=1,
        iterations=1,
    )
    show_table(rows, "A3 — CLUSTER vs CLUSTER2")
    for row in rows:
        assert row["cluster_upper"] >= row["true_diameter"], row["dataset"]
        assert row["cluster2_upper"] >= row["true_diameter"], row["dataset"]
        assert row["cluster2_r"] <= max(row["cluster2_radius_bound"], row["cluster_r"]), row["dataset"]


def test_expander_path_example(benchmark, show_table):
    """E6 — §3 example: polylog radius on a graph of diameter Ω(√n)."""
    result = benchmark.pedantic(
        lambda: run_expander_path_example(num_nodes=2048), rounds=1, iterations=1
    )
    show_table([result], "E6 — expander + path example")
    assert result["radius_much_smaller_than_diameter"]
    assert result["max_radius"] * 2 < result["diameter_lower_bound"]
