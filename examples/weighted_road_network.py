#!/usr/bin/env python
"""Weighted-graph extension: decomposing a road network with travel times.

The paper's concluding section sketches the extension of the decomposition to
weighted graphs: a strategy that controls the number of clusters, their
*weighted* radius, and their *hop* radius (which governs the parallel depth).
The library's core entry points run that extension whenever the graph carries
edge weights; this script exercises it on a road network whose edges carry
random travel times:

1. build the weighted graph,
2. run CLUSTER, which on a weighted graph is the hop-bounded weighted
   decomposition, and report both radii,
3. bound the weighted diameter through the weighted quotient graph, and
4. place k depots with the k-center approximation vs the Gonzalez baseline,
   both measured in travel time.

Run with::

    python examples/weighted_road_network.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import render_table
from repro.baselines import gonzalez_kcenter
from repro.core import cluster, estimate_diameter, kcenter
from repro.generators import attach_weights, road_network_graph
from repro.graph import double_sweep


def main() -> None:
    skeleton = road_network_graph(60, 60, seed=31)
    rng = np.random.default_rng(31)
    graph = attach_weights(skeleton, "uniform", low=1.0, high=10.0, seed=rng)
    total_weight = graph.edge_list()[1].sum()
    print(f"weighted road network: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"total weight {total_weight:.0f}")

    # --- 1. Hop-bounded weighted decomposition. ---------------------------
    clustering = cluster(graph, tau=8, seed=31)
    clustering.validate(graph)
    print(
        f"weighted CLUSTER(8): {clustering.num_clusters} clusters, "
        f"hop radius {clustering.max_radius} (parallel depth), "
        f"weighted radius {clustering.weighted_radius:.1f}"
    )

    # --- 2. Weighted diameter bounds. --------------------------------------
    lower_ref, _, _ = double_sweep(graph, rng=rng)
    estimate = estimate_diameter(graph, tau=8, seed=31)
    print(
        f"weighted diameter: >= {lower_ref:.1f} (double sweep), "
        f"decomposition bounds [{estimate.lower_bound:.1f}, {estimate.upper_bound:.1f}] "
        f"using only {estimate.clustering.max_radius} growing rounds"
    )

    # --- 3. Weighted k-center (depot placement by travel time). -----------
    rows = []
    for k in (5, 15, 40):
        ours = kcenter(graph, k, seed=31)
        greedy = gonzalez_kcenter(graph, k, seed=31)
        rows.append(
            {
                "k": k,
                "cluster_radius": round(ours.radius, 1),
                "gonzalez_radius": round(greedy.radius, 1),
                "ratio": round(ours.radius / max(1e-9, greedy.radius), 2),
            }
        )
    print()
    print(render_table(rows, title="weighted k-center (max travel time to nearest depot)"))


if __name__ == "__main__":
    main()
