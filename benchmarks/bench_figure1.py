"""Benchmark E5 — regenerate Figure 1 (cost vs diameter-stretching tails).

Paper's claim: appending a chain of ``c · ∆`` nodes to a social graph makes
BFS's cost grow linearly in ``c`` while CLUSTER's cost stays essentially flat.
"""

from __future__ import annotations


def test_figure1(benchmark, suite_rows, show_table):
    rows = benchmark.pedantic(lambda: suite_rows("figure1"), rounds=1, iterations=1)
    show_table(rows, "Figure 1 — cost vs tail length")
    datasets = sorted({row["dataset"] for row in rows})
    assert datasets == ["livejournal-like", "twitter-like"]
    for dataset in datasets:
        series = sorted(
            (row for row in rows if row["dataset"] == dataset),
            key=lambda row: row["tail_multiplier"],
        )
        base, top = series[0], series[-1]
        bfs_growth = top["bfs_rounds"] - base["bfs_rounds"]
        cluster_growth = top["cluster_rounds"] - base["cluster_rounds"]
        # BFS rounds grow roughly linearly with the tail (by at least the tail
        # length in BFS levels); CLUSTER grows by far less.
        assert bfs_growth > 0
        assert cluster_growth < bfs_growth / 2, dataset
        # Monotone growth of BFS cost along the series.
        bfs_rounds = [row["bfs_rounds"] for row in series]
        assert bfs_rounds == sorted(bfs_rounds)
