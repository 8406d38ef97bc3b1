"""Execution metrics for the MR(M_G, M_L) simulation engine.

The paper's performance story is told in terms of (i) the number of parallel
rounds and (ii) the communication volume per round / in aggregate.  The
engine meters exactly those quantities, for executed and charged rounds
alike, and the cost model in :mod:`repro.mapreduce.cost` converts them to a
simulated wall-clock time used by the Table 4 / Figure 1 reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = ["MRMetrics"]


@dataclass
class MRMetrics:
    """Counters accumulated while executing MR rounds.

    Attributes
    ----------
    rounds:
        Number of map-shuffle-reduce rounds executed or charged.
    shuffled_pairs:
        Total number of key-value pairs moved through the shuffle across all
        rounds (the aggregate communication volume).
    max_round_pairs:
        Largest number of pairs shuffled in a single round (per-round
        communication volume; this is what makes HADI slow in the paper).
    max_reducer_input:
        Largest number of pairs received by any single reducer in any round —
        the quantity constrained by the local memory M_L.
    max_live_pairs:
        Largest total number of pairs alive after any round — the quantity
        constrained by the global memory M_G.
    """

    rounds: int = 0
    shuffled_pairs: int = 0
    max_round_pairs: int = 0
    max_reducer_input: int = 0
    max_live_pairs: int = 0

    def record_round(self, *, pairs_shuffled: int, max_reducer_input: int, live_pairs: int) -> None:
        """Record the counters of one executed round."""
        self.rounds += 1
        self.shuffled_pairs += int(pairs_shuffled)
        self.max_round_pairs = max(self.max_round_pairs, int(pairs_shuffled))
        self.max_reducer_input = max(self.max_reducer_input, int(max_reducer_input))
        self.max_live_pairs = max(self.max_live_pairs, int(live_pairs))

    def record_charged_rounds(self, pairs_per_round: np.ndarray) -> None:
        """Record a batch of charged rounds with whole-array reductions.

        ``pairs_per_round`` holds one entry per charged round (its shuffled /
        live pair count; charged rounds have no reducer input).  Counter
        updates are identical to calling :meth:`record_round` once per entry
        with ``max_reducer_input=0`` — only the per-round Python loop is gone.
        """
        if pairs_per_round.size == 0:
            return
        self.rounds += int(pairs_per_round.size)
        self.shuffled_pairs += int(pairs_per_round.sum())
        peak = int(pairs_per_round.max())
        self.max_round_pairs = max(self.max_round_pairs, peak)
        self.max_live_pairs = max(self.max_live_pairs, peak)

    def as_dict(self) -> Dict[str, int]:
        """Flat dict of the scalar counters (for table rendering)."""
        return {
            "rounds": self.rounds,
            "shuffled_pairs": self.shuffled_pairs,
            "max_round_pairs": self.max_round_pairs,
            "max_reducer_input": self.max_reducer_input,
            "max_live_pairs": self.max_live_pairs,
        }
