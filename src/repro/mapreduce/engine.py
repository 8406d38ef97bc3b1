"""Round-synchronous MapReduce simulation engine.

The engine executes MR rounds in-process, single-machine, but faithfully to
the MR(M_G, M_L) abstraction: a round takes a multiset of key-value pairs,
optionally applies a map function to it, shuffles (groups) the results by
key, applies a reducer to every group, and emits the next multiset.  After
every round the engine

* meters the number of shuffled pairs, the largest reducer input and the
  number of live output pairs (:class:`~repro.mapreduce.metrics.MRMetrics`),
  and
* checks the M_L / M_G constraints via :class:`~repro.mapreduce.model.MRModel`.

Every round is a *structured round* (:meth:`MREngine.run_structured_round`):
the map phase emits an unflattened
:class:`~repro.mapreduce.backends.ArrayPairs` batch through the
:class:`~repro.mapreduce.structured.ArrayMapper` protocol, and the reduce
phase is a declarative :class:`~repro.mapreduce.structured.StructuredReducer`
(``min`` / ``max`` / ``sum`` / ``count`` / ``first`` / ``argmin`` /
``bitwise_or`` / custom) that the backends evaluate as C-level segment
reductions — no per-pair or per-key Python calls on the fast path.  The
metrics are metered from the array shapes.  Primitives whose round cost is
known analytically (the sort / prefix sums of Fact 1, see
:func:`~repro.mapreduce.model.rounds_for_primitive`) are charged with
:meth:`MREngine.charge_rounds` instead of being executed.

The physical execution of the shuffle+reduce is pluggable
(:mod:`repro.mapreduce.backends`): ``backend="serial"`` is the per-pair tuple
path (the bit-compatibility reference), ``backend="vectorized"`` groups with
one argsort and evaluates the reducer with segment reductions,
``backend="process"`` shards the key/value arrays across a persistent
:class:`~repro.mapreduce.pool.SupervisedPool`.  All backends are
bit-compatible: identical output arrays and identical metrics, so
round/communication numbers reported by the experiment harness do not depend
on the backend choice.  That guarantee extends to partial failures: the pool
resubmits a shard whose worker raised, died or hung, and the process backend
reduces a shard that stays lost in-process, so a round either returns the
exact arrays and metrics a fault-free run would have produced or raises —
never a silently truncated shuffle.  The seeded chaos suite
(:mod:`repro.faults`) regression-gates this bit-identical-under-faults
property.

The MR drivers of the core algorithms (:mod:`repro.core.mr_algorithms`,
:mod:`repro.core.mr_native`) and of the baselines (BFS, HADI) are built on
this engine, so the rounds / communication volumes reported in the Table 4
and Figure 1 reproductions are measured, not asserted.  The engine is a
context manager — ``with MREngine(backend="process") as engine: ...``
releases the backend's worker pool on exit (``close()`` does the same
explicitly; pools are re-created lazily if the engine is used again).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.mapreduce.backends import ArrayPairs, ExecutionBackend, get_backend
from repro.mapreduce.metrics import MRMetrics
from repro.mapreduce.model import MRModel
from repro.mapreduce.structured import (
    ArrayMapper,
    StructuredReducer,
    apply_array_mapper,
    resolve_structured_reducer,
)

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
        ``"vectorized"``, ``"process"``) or an
        :class:`~repro.mapreduce.backends.ExecutionBackend` instance.
        Backends are bit-compatible; pick ``vectorized`` for large
        single-machine workloads, ``process`` to use multiple cores on
        workloads with large rounds or expensive reducers (one worker pool
        is forked lazily and reused across all of the engine's rounds —
        release it with :meth:`close` or the engine's context manager).
    num_shards:
        Shard count for the ``process`` backend (defaults to the CPU count);
        ignored by the other backends.
    """

    def __init__(
        self,
        model: Optional[MRModel] = None,
        *,
        backend: BackendSpec = "serial",
        num_shards: Optional[int] = None,
    ) -> None:
        self.model = model if model is not None else MRModel(enforce=False)
        self.metrics = MRMetrics()
        self.backend = get_backend(backend, num_shards=num_shards)

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
        mapper: Union[ArrayMapper, Callable[[ArrayPairs], ArrayPairs], None] = None,
        label: str = "round",
    ) -> ArrayPairs:
        """Execute one array-native map → shuffle → reduce round.

        ``pairs`` is an unflattened :class:`ArrayPairs` batch; ``mapper`` (an
        :class:`~repro.mapreduce.structured.ArrayMapper` or any ``ArrayPairs
        -> ArrayPairs`` callable) runs once over the whole batch; ``reducer``
        is a registered structured-reducer name (``"min"``, ``"sum"``,
        ``"first"``, ``"argmin"``, ``"bitwise_or"``, ...) or a
        :class:`~repro.mapreduce.structured.StructuredReducer` instance.  The
        :class:`MRMetrics` counters are metered from the array shapes,
        identically on every backend, and the output batch preserves
        first-occurrence key order.
        """
        structured_reducer = resolve_structured_reducer(reducer)
        mapped = apply_array_mapper(mapper, pairs)
        outcome = self.backend.shuffle_reduce_structured(mapped, structured_reducer)
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

    # ------------------------------------------------------------------ #
    def pin_shared(self, name: str, arrays) -> dict:
        """Pin long-lived arrays into the backend's shared data plane.

        Round-heavy drivers call this once with their graph's CSR arrays
        (``indptr`` / ``indices`` / optionally ``weights``): the process
        backend publishes them into shared-memory segments for the driver's
        lifetime and returns zero-copy views, while in-process backends
        return the arrays unchanged — so drivers can pin unconditionally.
        Pass ``None`` values freely; they are forwarded untouched.  Release
        with :meth:`release_pins` (or :meth:`close`).
        """
        present = {key: value for key, value in arrays.items() if value is not None}
        pinned = dict(self.backend.pin_shared(name, present))
        for key, value in arrays.items():
            if value is None:
                pinned[key] = None
        return pinned

    def release_pins(self) -> None:
        """Release every array pinned via :meth:`pin_shared`."""
        self.backend.release_pins()

    def close(self) -> None:
        """Release backend resources (worker pools, pinned shared segments).

        Safe to call more than once; the backend lazily re-acquires its
        resources if the engine is used again afterwards.
        """
        self.backend.close()

    def __enter__(self) -> "MREngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def reset(self) -> None:
        """Clear accumulated metrics (the model's violation log is kept)."""
        self.metrics = MRMetrics()
