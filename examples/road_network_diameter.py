#!/usr/bin/env python
"""Estimating the diameter of a long-diameter road network.

This is the workload the paper's introduction motivates: a sparse graph with a
very large diameter (a road network), where BFS-style algorithms need Θ(∆)
communication rounds while the decomposition-based estimator needs far fewer.
The script:

1. generates a road-network-like graph (perturbed grid, ~14k nodes),
2. runs the three estimators of the paper's Table 4 — CLUSTER, BFS and HADI —
   under the same MR-round accounting, and
3. prints the resulting estimates, round counts, communication volumes and
   simulated times side by side.

Run with::

    python examples/road_network_diameter.py
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.baselines import hadi_diameter, mr_bfs_diameter
from repro.core import mr_estimate_diameter
from repro.generators import road_network_graph
from repro.graph import double_sweep


def main() -> None:
    graph = road_network_graph(120, 120, seed=7)
    reference, _, _ = double_sweep(graph)
    print(f"road network: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"diameter >= {reference}\n")

    ours = mr_estimate_diameter(graph, target_clusters=graph.num_nodes // 20, seed=7)
    # The baselines charge one round per BFS level or HADI iteration, as
    # CLUSTER charges one per growing step.
    bfs = mr_bfs_diameter(graph, seed=7)
    hadi = hadi_diameter(graph, seed=7, num_registers=16)

    rows = [
        {
            "algorithm": "CLUSTER (this paper)",
            "estimate": round(ours.estimate.upper_bound, 1),
            "rounds": ours.rounds,
            "shuffled_pairs": ours.shuffled_pairs,
            "simulated_time_s": round(ours.simulated_time, 1),
        },
        {
            "algorithm": "BFS (double sweep)",
            "estimate": bfs.estimate,
            "rounds": bfs.metrics.rounds,
            "shuffled_pairs": bfs.metrics.shuffled_pairs,
            "simulated_time_s": round(bfs.simulated_time, 1),
        },
        {
            "algorithm": "HADI / ANF",
            "estimate": hadi.estimate,
            "rounds": hadi.metrics.rounds,
            "shuffled_pairs": hadi.metrics.shuffled_pairs,
            "simulated_time_s": round(hadi.simulated_time, 1),
        },
    ]
    print(render_table(rows, title="Diameter estimation on a long-diameter road network"))
    print(
        "CLUSTER's upper bound is within a small factor of the true diameter while\n"
        "using an order of magnitude fewer rounds than the Θ(∆)-round competitors —\n"
        "the behaviour reported in Table 4 of the paper."
    )


if __name__ == "__main__":
    main()
