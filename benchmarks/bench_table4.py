"""Benchmark E4 — regenerate Table 4 (CLUSTER vs BFS vs HADI cost).

Paper's claims (under MR-round / communication accounting, see DESIGN.md):

* CLUSTER's round count is far below Θ(∆) on long-diameter graphs, so its
  simulated time beats BFS there (orders of magnitude on the real datasets);
* HADI needs Θ(∆) rounds *and* Θ(m) communication per round, making it the
  slowest method on every long-diameter graph;
* all methods produce usable diameter estimates (CLUSTER an upper bound,
  BFS a near-exact lower bound, HADI a slight underestimate).
"""

from __future__ import annotations


def test_table4(benchmark, suite_rows, show_table):
    rows = benchmark.pedantic(lambda: suite_rows("table4"), rounds=1, iterations=1)
    show_table(rows, "Table 4 — diameter estimation cost (MR accounting)")
    assert len(rows) == 6
    long_diameter = {"roads-CA-like", "roads-PA-like", "roads-TX-like", "mesh"}
    for row in rows:
        assert row["cluster_estimate"] >= row["true_diameter"], row["dataset"]
        if row["dataset"] in long_diameter:
            assert row["cluster_rounds"] < row["bfs_rounds"], row["dataset"]
            assert row["cluster_time"] < row["bfs_time"], row["dataset"]
            assert row["hadi_time"] > row["cluster_time"], row["dataset"]
            # HADI's communication volume dwarfs the others (Θ(m) per round).
            assert row["hadi_pairs"] > row["bfs_pairs"], row["dataset"]
