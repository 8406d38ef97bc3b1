#!/usr/bin/env python
"""Working with the MR(M_G, M_L) simulation engine directly.

The library's performance claims are stated in the MapReduce model of
Pietracaprina et al.: number of rounds, communication volume, and local/global
memory constraints.  This script shows the substrate on its own:

1. run a word-count round (a ``sum`` reducer over string keys) and inspect
   the metered counters,
2. tabulate the analytical round cost of the Fact-1 primitives (sort, prefix
   sums) under a shrinking local memory: O(log_ML n) rounds each,
3. execute the CLUSTER-based diameter estimation under a memory-constrained
   model and convert its metrics into simulated wall-clock time,
4. run the same ``count`` round on both execution backends (serial /
   vectorized) and check that output and metrics are bit-identical.

Run with::

    python examples/mapreduce_accounting.py
"""

from __future__ import annotations

import numpy as np

from repro.core import mr_estimate_diameter
from repro.generators import mesh_graph
from repro.mapreduce import (
    ArrayPairs,
    CostModel,
    MREngine,
    MRModel,
    available_backends,
    rounds_for_primitive,
)


def word_count_demo() -> None:
    engine = MREngine()
    documents = np.array(["graphs are large", "graphs are sparse"])

    # The map phase: one (word, 1) pair per token.
    words = [word for line in documents.tolist() for word in line.split()]
    batch = ArrayPairs(np.asarray(words), np.ones(len(words), dtype=np.int64))
    result = engine.run_structured_round(batch, "sum")
    print("word count:", dict(result.to_pairs()))
    print("metrics:", engine.metrics.as_dict(), "\n")


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


def backends_demo() -> None:
    """One count round, both backends — identical output and counters."""
    rng = np.random.default_rng(0)
    batch = ArrayPairs(rng.integers(0, 64, 5000), rng.integers(0, 100, 5000))

    print("\nbackend equivalence on a 5000-pair count round:")
    reference = None
    for name in available_backends():
        engine = MREngine(backend=name)
        output = engine.run_structured_round(batch, "count")
        snapshot = (output.to_pairs(), engine.metrics.as_dict())
        if reference is None:
            reference = snapshot
        status = "consistent" if snapshot == reference else "MISMATCH"
        print(f"  {name:>10}: {len(output)} groups, {engine.metrics.shuffled_pairs} pairs — {status}")


def main() -> None:
    word_count_demo()
    fact1_demo()
    constrained_diameter_demo()
    backends_demo()


if __name__ == "__main__":
    main()
