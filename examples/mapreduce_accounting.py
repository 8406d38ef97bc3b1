#!/usr/bin/env python
"""Working with the MR(M_G, M_L) accounting directly.

The library's performance claims are stated in the MapReduce model of
Pietracaprina et al.: number of rounds, communication volume, and local/global
memory constraints.  No round is executed: every algorithm runs in memory and
charges the rounds its run stands for.  This script shows the accounting on
its own:

1. tabulate the analytical round cost of the Fact-1 primitives (sort, prefix
   sums) under a shrinking local memory: O(log_ML n) rounds each,
2. run the CLUSTER-based diameter estimation under a memory-constrained
   model and convert its metrics into simulated wall-clock time.  The model
   records (rather than raises on) violations: the quotient-diameter round,
   which Theorem 4 runs on a single reducer, overflows M_L at this τ.

Run with::

    python examples/mapreduce_accounting.py
"""

from __future__ import annotations

from repro.core import mr_estimate_diameter
from repro.generators import mesh_graph
from repro.mapreduce import CostModel, MRModel, rounds_for_primitive


def fact1_demo() -> None:
    sizes = (500, 10**6)
    print("Fact 1: rounds per sort / prefix sum, by local memory M_L and input size n")
    print("    M_L" + "".join(f"{f'n={n:,}':>14}" for n in sizes))
    for local_memory in (1024, 32, 8):
        print(f"  {local_memory:>5}" + "".join(f"{rounds_for_primitive(n, local_memory):>14}" for n in sizes))
    print()


def constrained_diameter_demo() -> None:
    graph = mesh_graph(60, 60)
    model = MRModel.for_graph(graph.num_nodes, graph.num_edges, enforce=False)
    cost = CostModel(round_latency=1.0, pair_cost=2e-6)
    report = mr_estimate_diameter(graph, tau=16, seed=0, model=model, cost_model=cost)
    print(
        f"mesh 60x60 under MR(M_G={model.global_memory:,}, M_L={model.local_memory:,}):\n"
        f"  rounds            {report.rounds}\n"
        f"  shuffled pairs    {report.shuffled_pairs:,}\n"
        f"  simulated time    {report.simulated_time:.1f} s\n"
        f"  diameter bounds   [{report.estimate.lower_bound}, {report.estimate.upper_bound:.0f}] (true: 118)\n"
        f"  memory violations {len(model.violations)}"
    )
    # The quotient-diameter round ships the whole quotient to one reducer; at
    # tau = 16 the quotient has more arcs than M_L, so that round overflows.
    for violation in model.violations:
        print(f"    quotient-diameter round: {violation}")


def main() -> None:
    fact1_demo()
    constrained_diameter_demo()


if __name__ == "__main__":
    main()
