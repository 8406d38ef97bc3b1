"""Benchmark A4 — k-center approximation quality (Theorem 2 in practice)."""

from __future__ import annotations

from repro.experiments.ablations import KCENTER_DATASETS, kcenter_rows


def test_kcenter_quality(benchmark, scale, show_table):
    rows = benchmark.pedantic(
        lambda: [row for name in KCENTER_DATASETS for row in kcenter_rows(name, scale=scale)],
        rounds=1,
        iterations=1,
    )
    show_table(rows, "A4 — k-center: CLUSTER vs Gonzalez vs random")
    for row in rows:
        # Gonzalez is a 2-approximation, so OPT >= gonzalez/2; Theorem 2 promises
        # a polylog factor — in practice we stay within a small constant of Gonzalez.
        assert row["cluster_radius"] <= 8 * max(1, row["gonzalez_radius"]), row
        # The number of centers never exceeds the budget.
        assert row["cluster_centers_used"] <= row["k"]
