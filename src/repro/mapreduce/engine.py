"""Round-synchronous MapReduce simulation engine.

The engine executes MR rounds in-process, single-machine, but faithfully to
the MR(M_G, M_L) abstraction: a round takes the multiset of key-value pairs
a driver's map phase emitted, shuffles (groups) it by key, applies a reducer
to every group, and emits the next multiset.  After every round the engine

* meters the number of shuffled pairs, the largest reducer input and the
  number of live output pairs (:class:`~repro.mapreduce.metrics.MRMetrics`),
  and
* checks the M_L / M_G constraints via :class:`~repro.mapreduce.model.MRModel`.

Every executed round is a *structured round*
(:meth:`MREngine.run_structured_round`): the caller hands the engine an
unflattened :class:`~repro.mapreduce.structured.ArrayPairs` batch and the
name of one of four reducers (``first`` / ``sum`` / ``count`` /
``bitwise_or``), evaluated in the calling process as one segment pass
(:func:`~repro.mapreduce.structured.execute_segments`) — no per-pair or
per-key Python calls.  The metrics are metered from the array shapes.
Rounds whose cost is known analytically (a cluster-growing step of Lemma 3,
the sort / prefix sums of Fact 1, see
:func:`~repro.mapreduce.model.rounds_for_primitive`) are charged with
:meth:`MREngine.charge_rounds` instead of being executed.

The baselines' MR algorithms (double-sweep BFS, HADI) execute their rounds on
this engine, and :mod:`repro.core.mr_algorithms` charges CLUSTER's rounds
from its growth trace, so the rounds / communication volumes reported in the
Table 4 and Figure 1 reproductions are metered, not asserted.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mapreduce.metrics import MRMetrics
from repro.mapreduce.model import MRModel
from repro.mapreduce.structured import ArrayPairs, execute_segments

__all__ = ["MREngine"]


class MREngine:
    """Executor of MR rounds with metering and constraint checking.

    Parameters
    ----------
    model:
        The MR(M_G, M_L) instance to validate against.  Defaults to an
        unbounded model (no constraint failures, metrics still collected).
    """

    def __init__(self, model: Optional[MRModel] = None) -> None:
        self.model = model if model is not None else MRModel(enforce=False)
        self.metrics = MRMetrics()

    # ------------------------------------------------------------------ #
    def run_structured_round(self, pairs: ArrayPairs, reducer: str) -> ArrayPairs:
        """Execute one array-native shuffle → reduce round over ``pairs``.

        ``pairs`` is the round's unflattened :class:`ArrayPairs` batch, as
        the caller's map phase emitted it; ``reducer`` is ``"first"``,
        ``"sum"``, ``"count"`` or ``"bitwise_or"``.  The :class:`MRMetrics`
        counters are metered from the array shapes, and the output batch
        preserves first-occurrence key order.
        """
        outcome = execute_segments(pairs, reducer)
        live_pairs = max(outcome.pairs_shuffled, len(outcome.output))
        self.metrics.record_round(
            pairs_shuffled=outcome.pairs_shuffled,
            max_reducer_input=outcome.max_reducer_input,
            live_pairs=live_pairs,
        )
        self.model.check_round(
            max_reducer_input=outcome.max_reducer_input, live_pairs=live_pairs
        )
        return outcome.output

    # ------------------------------------------------------------------ #
    def charge_rounds(self, pairs_per_round) -> None:
        """Account for rounds executed outside the engine: one per entry.

        Some rounds (a cluster-growing step, the sort / prefix sums of
        Fact 1) run directly on NumPy arrays, but their cost in the MR model
        is known analytically.  ``pairs_per_round`` holds one non-negative
        pair count per charged round (its shuffled and live pairs; a charged
        round has no reducer input), so the reported round counts and
        communication volumes stay faithful.
        """
        charges = np.asarray(pairs_per_round, dtype=np.int64)
        if charges.ndim != 1 or bool((charges < 0).any()):
            raise ValueError(f"pairs_per_round must be a 1-d array of non-negative counts, got {pairs_per_round!r}")
        self.metrics.record_charged_rounds(charges)
