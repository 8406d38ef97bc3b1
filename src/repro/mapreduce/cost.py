"""Cost model converting MR metrics into a simulated wall-clock time.

On a cluster of loosely-coupled servers (the paper uses 16 hosts on 10 GbE
running Spark) the running time of a round-synchronous algorithm decomposes
into a fixed per-round overhead (scheduling, synchronization, shuffle set-up)
plus a term proportional to the data moved through the shuffle.  The paper's
Table 4 / Figure 1 results are driven by exactly this decomposition:

* BFS and HADI need Θ(∆) rounds, CLUSTER needs O(R_ALG) ≪ ∆ rounds on
  long-diameter, low-doubling-dimension graphs;
* HADI additionally shuffles Θ(m) sketches *per round*, while BFS and CLUSTER
  shuffle Θ(m) data *in aggregate*.

The default constants are calibrated so that the simulated times for the
paper's six benchmark stand-ins land in the same order of magnitude as the
published seconds; the *shape* of the comparison is what matters and is
insensitive to the constants (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapreduce.metrics import MRMetrics

__all__ = ["CostModel", "DEFAULT_COST_MODEL"]


@dataclass(frozen=True)
class CostModel:
    """Linear cost model ``time = round_latency * rounds + pair_cost * shuffled_pairs``.

    Attributes
    ----------
    round_latency:
        Seconds of fixed overhead per MR round (Spark stage scheduling +
        synchronization barrier).  The paper's cluster shows multi-second
        per-round overheads for small stages.
    pair_cost:
        Seconds per shuffled key-value pair (network + serialization).
    """

    round_latency: float = 1.0
    pair_cost: float = 2.0e-6

    def simulated_time(self, metrics: MRMetrics) -> float:
        """Simulated seconds for an execution with the given metrics."""
        return self.round_latency * metrics.rounds + self.pair_cost * metrics.shuffled_pairs


DEFAULT_COST_MODEL = CostModel()
