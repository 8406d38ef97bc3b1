"""Round-synchronous MapReduce simulation engine.

The engine executes MR rounds in-process, single-machine, but faithfully to
the MR(M_G, M_L) abstraction: a round takes the multiset of key-value pairs
a driver's map phase emitted, shuffles (groups) it by key, applies a reducer
to every group, and emits the next multiset.  After every round the engine

* meters the number of shuffled pairs, the largest reducer input and the
  number of live output pairs (:class:`~repro.mapreduce.metrics.MRMetrics`),
  and
* checks the M_L / M_G constraints via :class:`~repro.mapreduce.model.MRModel`.

Every round is a *structured round* (:meth:`MREngine.run_structured_round`):
the driver hands the engine an unflattened
:class:`~repro.mapreduce.backends.ArrayPairs` batch, and the reduce phase is a
declarative :class:`~repro.mapreduce.structured.StructuredReducer` (``min`` /
``max`` / ``sum`` / ``count`` / ``first`` / ``argmin`` / ``bitwise_or`` /
custom) that the backends evaluate as C-level segment reductions — no
per-pair or per-key Python calls on the fast path.  The metrics are metered
from the array shapes.  Primitives whose round cost is known analytically
(the sort / prefix sums of Fact 1, see
:func:`~repro.mapreduce.model.rounds_for_primitive`) are charged with
:meth:`MREngine.charge_rounds` instead of being executed.

The physical execution of the shuffle+reduce is pluggable
(:mod:`repro.mapreduce.backends`): ``backend="serial"`` is the per-pair tuple
path (the bit-compatibility reference) and ``backend="vectorized"`` groups
with one argsort and evaluates the reducer with segment reductions.  Both run
in the calling process and are bit-compatible: identical output arrays and
identical metrics, so round/communication numbers reported by the experiment
harness do not depend on the backend choice.

The MR drivers of the core algorithms (:mod:`repro.core.mr_algorithms`) and
of the baselines (BFS, HADI) are built on this engine, so the rounds /
communication volumes reported in the Table 4 and Figure 1 reproductions are
measured, not asserted.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.mapreduce.backends import ArrayPairs, ExecutionBackend, get_backend
from repro.mapreduce.metrics import MRMetrics
from repro.mapreduce.model import MRModel
from repro.mapreduce.structured import StructuredReducer, resolve_structured_reducer

BackendSpec = Union[str, ExecutionBackend, None]

__all__ = ["MREngine"]


class MREngine:
    """Executor of MR rounds with metering and constraint checking.

    Parameters
    ----------
    model:
        The MR(M_G, M_L) instance to validate against.  Defaults to an
        unbounded model (no constraint failures, metrics still collected).
    backend:
        Execution backend for the shuffle+reduce phase: a name from
        :func:`repro.mapreduce.backends.available_backends` (``"serial"``,
        ``"vectorized"``) or an
        :class:`~repro.mapreduce.backends.ExecutionBackend` instance.
        Backends are bit-compatible; pick ``vectorized`` for large workloads.
    """

    def __init__(self, model: Optional[MRModel] = None, *, backend: BackendSpec = "serial") -> None:
        self.model = model if model is not None else MRModel(enforce=False)
        self.metrics = MRMetrics()
        self.backend = get_backend(backend)

    @property
    def backend_name(self) -> str:
        """Name of the active execution backend."""
        return self.backend.name

    # ------------------------------------------------------------------ #
    def run_structured_round(
        self,
        pairs: ArrayPairs,
        reducer: Union[str, StructuredReducer],
        *,
        label: str = "round",
    ) -> ArrayPairs:
        """Execute one array-native shuffle → reduce round over ``pairs``.

        ``pairs`` is the round's unflattened :class:`ArrayPairs` batch, as
        the driver's map phase emitted it; ``reducer`` is a registered
        structured-reducer name (``"min"``, ``"sum"``, ``"first"``,
        ``"argmin"``, ``"bitwise_or"``, ...) or a
        :class:`~repro.mapreduce.structured.StructuredReducer` instance.  The
        :class:`MRMetrics` counters are metered from the array shapes,
        identically on every backend, and the output batch preserves
        first-occurrence key order.
        """
        structured_reducer = resolve_structured_reducer(reducer)
        outcome = self.backend.shuffle_reduce_structured(pairs, structured_reducer)
        live_pairs = max(outcome.pairs_shuffled, len(outcome.output))
        self.metrics.record_round(
            pairs_shuffled=outcome.pairs_shuffled,
            max_reducer_input=outcome.max_reducer_input,
            live_pairs=live_pairs,
            label=label,
        )
        self.model.check_round(
            max_reducer_input=outcome.max_reducer_input, live_pairs=live_pairs
        )
        return outcome.output

    # ------------------------------------------------------------------ #
    def charge_rounds(self, count: int, *, pairs_per_round: int = 0, label: str = "charged") -> None:
        """Account for ``count`` rounds executed outside the engine.

        Some primitives (e.g. the sort/prefix-sum of Fact 1) are implemented
        directly on NumPy arrays for speed, but their round cost in the MR
        model is known analytically.  ``charge_rounds`` lets drivers record
        that cost so that the reported round counts remain faithful.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            self.metrics.record_round(
                pairs_shuffled=pairs_per_round,
                max_reducer_input=0,
                live_pairs=pairs_per_round,
                label=label,
            )

    def charge_rounds_batch(self, pairs_per_round, *, label: str = "charged") -> None:
        """Vectorized :meth:`charge_rounds`: one charged round per array entry.

        ``pairs_per_round`` is an integer array-like; the counters are updated
        with whole-array reductions (sum / max) instead of one Python-level
        ``record_round`` call per charged round, which is what keeps the
        trace-replay accounting of :func:`repro.core.mr_algorithms.charge_clustering_rounds`
        array-native.  Semantically identical to looping ``charge_rounds(1,
        pairs_per_round=p)`` over the entries.
        """
        charges = np.asarray(pairs_per_round, dtype=np.int64)
        if charges.ndim != 1:
            raise ValueError(f"pairs_per_round must be one-dimensional, got shape {charges.shape}")
        self.metrics.record_charged_rounds(charges, label=label)

    def reset(self) -> None:
        """Clear accumulated metrics (the model's violation log is kept)."""
        self.metrics = MRMetrics()
