"""Round accounting for the MR(M_G, M_L) simulation.

No MR round is executed: every algorithm runs on NumPy arrays in memory, and
its rounds are *charged* to an :class:`MREngine` from what the run did.  A
charged round is one entry of :meth:`MREngine.charge_rounds`, its number of
shuffled pairs, and :class:`~repro.mapreduce.metrics.MRMetrics` accumulates
the round count and communication volume the Table 4 / Figure 1
reproductions report.  The charges come from

* CLUSTER's growth trace (:mod:`repro.core.mr_algorithms`): one round per
  growing step (Lemma 3), ``rounds_for_primitive`` rounds per outer
  iteration and for the quotient build (the sort / prefix sums of Fact 1),
  and one round for the quotient diameter, the one round checked against
  the engine's :class:`~repro.mapreduce.model.MRModel`;
* the double-sweep BFS baseline: one round per BFS level;
* the HADI baseline: one round per sketch-propagation iteration.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mapreduce.metrics import MRMetrics
from repro.mapreduce.model import MRModel

__all__ = ["MREngine"]


class MREngine:
    """Accumulator of charged MR rounds, with the model they run under.

    Parameters
    ----------
    model:
        The MR(M_G, M_L) instance the quotient-diameter round is checked
        against.  Defaults to an unbounded model (no constraint failures,
        metrics still collected).
    """

    def __init__(self, model: Optional[MRModel] = None) -> None:
        self.model = model if model is not None else MRModel(enforce=False)
        self.metrics = MRMetrics()

    def charge_rounds(self, pairs_per_round) -> None:
        """Account for rounds run outside the engine: one per entry.

        ``pairs_per_round`` holds one non-negative shuffled-pair count per
        charged round, so the reported round counts and communication
        volumes stay faithful to the MR execution the arrays stand for.
        """
        charges = np.asarray(pairs_per_round, dtype=np.int64)
        if charges.ndim != 1 or bool((charges < 0).any()):
            raise ValueError(f"pairs_per_round must be a 1-d array of non-negative counts, got {pairs_per_round!r}")
        self.metrics.record_charged_rounds(charges)
