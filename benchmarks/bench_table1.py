"""Benchmark E1 — regenerate Table 1 (benchmark graph characteristics)."""

from __future__ import annotations


def test_table1(benchmark, suite_rows, show_table):
    rows = benchmark.pedantic(lambda: suite_rows("table1"), rounds=1, iterations=1)
    show_table(rows, "Table 1 — dataset characteristics")
    assert len(rows) == 6
    # Regime sanity: road/mesh stand-ins have much larger diameters than the
    # social stand-ins, mirroring the paper's dataset mix.
    diameters = {row["dataset"]: row["diameter"] for row in rows}
    assert diameters["roads-CA-like"] > 4 * diameters["twitter-like"]
    assert diameters["mesh"] > 4 * diameters["livejournal-like"]
    for row in rows:
        assert row["nodes"] > 0 and row["edges"] > 0
