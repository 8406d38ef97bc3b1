"""Benchmark E3 — regenerate Table 3 (diameter approximation quality).

Paper's claims: the estimate ∆' is a true upper bound, the ratio ∆'/∆ stays
below ~2 (clearly so on the sparse long-diameter graphs), and the quality is
essentially independent of the clustering granularity.
"""

from __future__ import annotations


def test_table3(benchmark, suite_rows, show_table):
    rows = benchmark.pedantic(lambda: suite_rows("table3"), rounds=1, iterations=1)
    show_table(rows, "Table 3 — diameter approximation quality")
    assert len(rows) == 6
    long_diameter = {"roads-CA-like", "roads-PA-like", "roads-TX-like", "mesh"}
    for row in rows:
        for granularity in ("coarse", "fine"):
            assert row[f"{granularity}_lower"] <= row["true_diameter"], row["dataset"]
            assert row[f"{granularity}_upper"] >= row["true_diameter"], row["dataset"]
        if row["dataset"] in long_diameter:
            assert row["fine_ratio"] < 2.0, row["dataset"]
            assert row["coarse_ratio"] < 2.0, row["dataset"]
        # Quality roughly independent of granularity (paper's observation).
        assert abs(row["coarse_ratio"] - row["fine_ratio"]) < 1.0, row["dataset"]
