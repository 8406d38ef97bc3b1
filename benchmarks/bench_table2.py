"""Benchmark E2 — regenerate Table 2 (CLUSTER vs MPX decomposition quality).

Paper's claim: at comparable granularity CLUSTER achieves a smaller maximum
cluster radius than MPX on every graph, with the largest gap on long-diameter
(road / mesh) graphs; MPX often wins on the number of inter-cluster edges for
the social graphs.
"""

from __future__ import annotations


def test_table2(benchmark, suite_rows, show_table):
    rows = benchmark.pedantic(lambda: suite_rows("table2"), rounds=1, iterations=1)
    show_table(rows, "Table 2 — CLUSTER vs MPX")
    assert len(rows) == 6
    long_diameter = {"roads-CA-like", "roads-PA-like", "roads-TX-like", "mesh"}
    for row in rows:
        # CLUSTER never loses on the maximum radius (the paper's headline).
        assert row["cluster_r"] <= row["mpx_r"] + 1, row["dataset"]
        if row["dataset"] in long_diameter:
            assert row["cluster_r"] <= row["mpx_r"], row["dataset"]
    # On long-diameter graphs the radius gap is clearly visible on average.
    gaps = [
        row["mpx_r"] / max(1, row["cluster_r"])
        for row in rows
        if row["dataset"] in long_diameter
    ]
    assert sum(gaps) / len(gaps) > 1.15
