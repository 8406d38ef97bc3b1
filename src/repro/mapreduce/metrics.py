"""Round and communication counters of the MR(M_G, M_L) simulation.

The paper's performance story is told in terms of (i) the number of parallel
rounds and (ii) the communication volume per round / in aggregate.  The
engine accumulates exactly those quantities over its charged rounds, and the
cost model in :mod:`repro.mapreduce.cost` converts them to a simulated
wall-clock time used by the Table 4 / Figure 1 reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MRMetrics"]


@dataclass
class MRMetrics:
    """Counters accumulated over charged MR rounds.

    Attributes
    ----------
    rounds:
        Number of map-shuffle-reduce rounds charged.
    shuffled_pairs:
        Total number of key-value pairs moved through the shuffle across all
        rounds (the aggregate communication volume).
    max_round_pairs:
        Largest number of pairs shuffled in a single round (per-round
        communication volume; this is what makes HADI slow in the paper).
    """

    rounds: int = 0
    shuffled_pairs: int = 0
    max_round_pairs: int = 0

    def record_charged_rounds(self, pairs_per_round: np.ndarray) -> None:
        """Record a batch of charged rounds, one per entry of ``pairs_per_round``."""
        if pairs_per_round.size == 0:
            return
        self.rounds += int(pairs_per_round.size)
        self.shuffled_pairs += int(pairs_per_round.sum())
        self.max_round_pairs = max(self.max_round_pairs, int(pairs_per_round.max()))
