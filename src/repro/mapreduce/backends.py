"""Pluggable execution backends for the MR simulation engine.

:class:`~repro.mapreduce.engine.MREngine` delegates the physical execution of
a structured round — shuffle (grouping an :class:`ArrayPairs` batch by key)
and reduce (a :class:`~repro.mapreduce.structured.StructuredReducer`) — to an
:class:`ExecutionBackend`.  Three backends ship with the library:

``serial``
    The reference implementation: flattens the batch to per-pair Python
    tuples, groups them with a dict and calls the reducer's
    :meth:`~repro.mapreduce.structured.StructuredReducer.reference` once per
    key (the *tuple path*).  Zero dependencies, easiest to debug, and the
    semantic baseline the other backends are tested against.

``vectorized``
    Groups with one stable argsort over the key array and evaluates the
    reducer as ``np.<ufunc>.reduceat``-style segment reductions — zero
    per-pair and zero per-key Python calls.  Key arrays that cannot be
    argsort-grouped (object dtype, NaN floats) take the tuple path.  Best
    choice for large single-machine workloads.

``process``
    Shards the key/value *arrays* by ``keys % num_shards`` and segment-reduces
    every shard in a worker of a :class:`~repro.mapreduce.pool.SupervisedPool`.
    One pool is forked lazily and reused across all of an engine's rounds
    (the reducer travels inside each task; a reducer that does not pickle
    runs in-process); where ``fork`` is unavailable the backend
    transparently degrades to in-process execution with identical semantics.
    Large rounds (at least ``shm_min_pairs`` pairs, default 131072) run on a
    *zero-copy shared-memory data plane* (:mod:`repro.mapreduce.shm`):
    the round's key/value arrays are published once into
    ``multiprocessing.shared_memory`` segments, workers receive only
    :class:`~repro.mapreduce.shm.SharedArrayRef` descriptors plus contiguous
    per-shard index ranges, and winner rows are written into a preallocated
    shared output segment — no pickled numpy arrays cross the pool boundary
    in either direction.  Smaller rounds ship pickled shard arrays.
    Long-lived driver data (a graph's CSR arrays, a suite's datasets) can be
    pinned into the same plane via :meth:`ExecutionBackend.pin_shared`.

Every backend implements the same contract and is *bit-compatible* with the
serial reference: identical output arrays (same order — groups are emitted in
first-occurrence order of their key, exactly like dict insertion order) and
identical :class:`~repro.mapreduce.metrics.MRMetrics`.  The cross-backend
equivalence suites in ``tests/mapreduce`` enforce this.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import weakref
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro import faults
from repro.mapreduce.pool import SupervisedPool, WorkerLostError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (structured imports ArrayPairs)
    from repro.mapreduce.structured import StructuredOutcome, StructuredReducer

Pair = Tuple[Hashable, object]

__all__ = [
    "ArrayPairs",
    "ExecutionBackend",
    "SerialBackend",
    "VectorizedBackend",
    "ProcessBackend",
    "get_backend",
    "available_backends",
    "fork_available",
]


def fork_available() -> bool:
    """True when forked worker pools may be used on this platform.

    Spawn-only platforms (and test/CI runs setting ``REPRO_MR_NO_FORK=1`` to
    simulate them) make every pool-based component degrade to in-process
    execution with identical semantics.
    """
    if os.environ.get("REPRO_MR_NO_FORK", "") not in ("", "0"):
        return False
    return "fork" in multiprocessing.get_all_start_methods()


class ArrayPairs:
    """Unflattened batch of key-value pairs: one keys array, one values array.

    The vectorized and process backends consume this representation natively
    (the keys never become per-pair Python tuples); the serial reference
    flattens it via :meth:`to_pairs`.  ``keys`` must be a one-dimensional
    NumPy array; ``values`` must be a NumPy array (any dtype, including
    ``object``) whose first dimension matches ``keys``.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys = np.asarray(keys)
        values = np.asarray(values)
        if keys.ndim != 1:
            raise ValueError(f"keys must be one-dimensional, got shape {keys.shape}")
        if len(values) != len(keys):
            raise ValueError(
                f"keys and values must have the same length ({len(keys)} != {len(values)})"
            )
        self.keys = keys
        self.values = values

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def to_pairs(self) -> List[Pair]:
        """Flatten into the per-pair tuple representation (Python scalars)."""
        return list(zip(self.keys.tolist(), self.values.tolist()))


class ExecutionBackend(ABC):
    """Strategy interface executing the shuffle+reduce phase of an MR round.

    Implementations must be *bit-compatible* with :class:`SerialBackend`:
    given the same mapped :class:`ArrayPairs` batch and structured reducer
    they must return the same
    :class:`~repro.mapreduce.structured.StructuredOutcome` (same output
    arrays in the same order, same counters).  Groups are reduced in
    first-occurrence order of their key and each reducer sees its values in
    arrival order.  Custom backends override :meth:`shuffle_reduce_structured`.
    """

    name: str = "abstract"

    @abstractmethod
    def shuffle_reduce_structured(
        self, mapped: "ArrayPairs", reducer: "StructuredReducer"
    ) -> "StructuredOutcome":
        """Group an :class:`ArrayPairs` batch by key and apply ``reducer``."""

    def pin_shared(self, name: str, arrays: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Pin long-lived arrays into the backend's shared data plane.

        Round-heavy drivers pin their graph's CSR arrays once so the backend
        can keep them resident for the driver's lifetime.  In-process
        backends have nothing to share — the default returns the arrays
        unchanged — while :class:`ProcessBackend` publishes them into
        shared-memory segments and returns zero-copy views.  Pins are
        released by :meth:`release_pins` (or :meth:`close`).
        """
        return dict(arrays)

    def release_pins(self) -> None:
        """Release every array pinned via :meth:`pin_shared` (default no-op)."""

    def close(self) -> None:
        """Release backend resources (worker pools); a no-op by default."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class SerialBackend(ExecutionBackend):
    """The tuple path: per-pair tuples, dict shuffle, per-key reference calls.

    The reference semantics every other backend is pinned against, and the
    path every backend takes for keys an argsort cannot group (object dtype,
    NaN floats).
    """

    name = "serial"

    def shuffle_reduce_structured(
        self, mapped: "ArrayPairs", reducer: "StructuredReducer"
    ) -> "StructuredOutcome":
        from repro.mapreduce import structured

        return structured.execute_reference(mapped, reducer)


class VectorizedBackend(ExecutionBackend):
    """One stable argsort over the key array + pure segment reductions.

    Zero per-key Python calls — the reducer is evaluated with
    ``np.<ufunc>.reduceat``-style passes over the whole sorted value array.
    Key arrays an argsort cannot group (object dtype, NaN floats) take the
    serial tuple path, so the backend is safe as a drop-in default.
    """

    name = "vectorized"

    def shuffle_reduce_structured(
        self, mapped: "ArrayPairs", reducer: "StructuredReducer"
    ) -> "StructuredOutcome":
        from repro.mapreduce import structured

        return structured.execute_segments(mapped, reducer)


# ---------------------------------------------------------------------- #
# Process backend
# ---------------------------------------------------------------------- #
def _structured_shard_task(task):
    """Pool task for one pickled structured shard (chaos-instrumented)."""
    from repro.mapreduce import structured

    faults.inject("mr.worker.structured")
    return structured.reduce_structured_shard(task)


class ProcessBackend(ExecutionBackend):
    """Array-sharded shuffle reduced on a :class:`~repro.mapreduce.pool.SupervisedPool`.

    The key array is partitioned into ``num_shards`` shards by ``keys %
    num_shards`` (all pairs of a key land in one shard, so grouping stays
    exact; no per-pair tuples are built), and every shard is reduced with the
    same segment reductions as the vectorized backend in one worker call.
    Output groups are merged back in first-occurrence order, so the result is
    bit-identical to the serial backend.

    The worker pool (:attr:`pool`) is forked lazily on first use and *reused
    across all of an engine's rounds* — the (picklable) reducer travels
    inside each task, so the tens-of-milliseconds pool setup cost is paid
    once instead of per round, which makes the backend viable for
    round-heavy MR algorithms.  A reducer that does not pickle, a round whose
    keys all fall into one shard, and fork-less platforms run the segment
    path in-process instead.  Release the pool with :meth:`close` (also called by
    ``MREngine.close()`` / the engine's context manager); a closed backend
    lazily re-creates the pool if used again.

    The pool supervises every shard task: one that raises, loses its worker
    or overruns ``round_timeout`` is resubmitted on a rebuilt pool up to
    ``max_round_retries`` times, and a shard still lost after that is reduced
    in-process — bit-identical, just not parallel.

    Rounds of at least ``shm_min_pairs`` pairs take the *zero-copy
    shared-memory path* (:mod:`repro.mapreduce.shm`): the key/value arrays
    are published into one shared segment in shard order, workers receive
    only ``(segment, dtype, shape, offset)`` descriptors plus a contiguous
    ``[start, end)`` slice per shard, and the reduced winner rows are written
    into a preallocated shared output segment — no pickled NumPy array ever
    crosses the pool boundary in either direction.  Smaller rounds (and
    key/value dtypes shared memory cannot hold) keep the descriptor-free
    pickled-shard path.

    Parameters
    ----------
    num_shards:
        Number of shuffle shards (defaults to the CPU count).  Also the upper
        bound on pool workers.
    shm_min_pairs:
        Minimum structured-round size (in mapped pairs) for the shared-memory
        path; below it the fixed segment-setup cost outweighs the saved
        serialization.
    max_round_retries:
        How many times a shard task is resubmitted after it raised, lost its
        worker or overran ``round_timeout`` before it is reduced in-process.
    round_timeout:
        Wall-clock budget in seconds for one attempt of a shard task; an
        overrun is handled like a lost worker.  ``None`` disables it.
    """

    name = "process"

    def __init__(
        self,
        num_shards: Optional[int] = None,
        *,
        shm_min_pairs: int = 131072,
        max_round_retries: int = 2,
        round_timeout: Optional[float] = None,
    ) -> None:
        if num_shards is not None and num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards if num_shards is not None else (os.cpu_count() or 1)
        self.shm_min_pairs = int(shm_min_pairs)
        self.pool = SupervisedPool(self.num_shards, retries=max_round_retries, timeout=round_timeout)
        self._fork_available = fork_available()
        self._pins: Dict[str, Dict[str, object]] = {}
        # _picklable memo: reducers are probed once per *object*, not once per
        # round — round-heavy drivers reuse one registered reducer for
        # hundreds of rounds, and each pickle.dumps probe costs more than the
        # lookup that replaces it.  Keyed weakly so dead reducers drop out.
        self._picklable_cache: "weakref.WeakKeyDictionary[object, bool]" = (
            weakref.WeakKeyDictionary()
        )

    def close(self) -> None:
        """Shut down the pool and the shared-memory plane.

        Workers are drained gracefully so they release their segment
        attachments, then every segment this backend still owns — pins
        included — is unlinked.  Both come back lazily if the backend is
        used again.
        """
        self._pins.clear()
        self.pool.close()

    def _picklable(self, reducer: object) -> bool:
        try:
            cached = self._picklable_cache.get(reducer)
        except TypeError:  # unhashable / non-weakrefable reducer
            cached = None
        if cached is not None:
            return cached
        try:
            pickle.dumps(reducer)
            result = True
        except Exception:
            result = False
        try:
            self._picklable_cache[reducer] = result
        except TypeError:
            pass
        return result

    # ------------------------------------------------------------------ #
    # Long-lived pinned arrays (graph CSR residency)
    # ------------------------------------------------------------------ #
    def pin_shared(self, name: str, arrays: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Publish ``arrays`` into shared segments and return zero-copy views.

        Pinning models the distributed graph residency of the paper's
        algorithms: a round-heavy driver publishes its CSR arrays once, and
        they stay resident in shared memory until :meth:`release_pins` /
        :meth:`close`.  Platforms without fork (where no pool will ever
        attach) skip the publication and return the arrays unchanged.
        """
        if not self._fork_available:
            return dict(arrays)
        segments = self.pool.segments
        stale = self._pins.pop(name, None)
        if stale is not None:
            segments.release_refs(stale)
        refs = segments.publish(arrays)
        self._pins[name] = refs
        return {key: segments.view(ref) for key, ref in refs.items()}

    def release_pins(self) -> None:
        """Unpin (release) every array pinned via :meth:`pin_shared`."""
        for refs in self._pins.values():
            self.pool.segments.release_refs(refs)
        self._pins.clear()

    # ------------------------------------------------------------------ #
    def shuffle_reduce_structured(
        self, mapped: "ArrayPairs", reducer: "StructuredReducer"
    ) -> "StructuredOutcome":
        """Array-native sharded execution of a structured round.

        Shards are carved out of the key/value arrays by ``keys %
        num_shards`` — no per-pair tuple list is ever built — and each shard
        is segment-reduced in a pool worker.  Rounds of at least
        ``shm_min_pairs`` pairs run zero-copy through shared memory
        (:meth:`_shuffle_reduce_structured_shm`); smaller rounds ship pickled
        shard arrays.  Rounds with nothing to fan out — non-integer keys,
        one shard, an unpicklable reducer, no fork — run the segment path
        in-process; output and counters are identical on every path.
        """
        from repro.mapreduce import structured

        reducer.validate_values(mapped.values)
        keys = mapped.keys
        if (
            len(mapped) == 0
            or keys.dtype.kind not in "iub"
            or self.num_shards == 1
            or not self._fork_available
            or not self._picklable(reducer)
        ):
            return structured.execute_segments(mapped, reducer)
        shard_ids = keys.astype(np.int64, copy=False) % self.num_shards
        counts = np.bincount(shard_ids, minlength=self.num_shards)
        if np.count_nonzero(counts) < 2:
            return structured.execute_segments(mapped, reducer)
        if self._shm_eligible(mapped, reducer):
            return self._shuffle_reduce_structured_shm(mapped, reducer, shard_ids, counts)

        tasks = []
        for shard in np.flatnonzero(counts):
            indices = np.flatnonzero(shard_ids == shard)
            tasks.append((reducer, keys[indices], mapped.values[indices], indices))
        results = self.pool.map(_structured_shard_task, tasks)
        # A lost shard is reduced here, by the uninstrumented shard reduction.
        results = [
            structured.reduce_structured_shard(task) if isinstance(result, WorkerLostError) else result
            for task, result in zip(tasks, results)
        ]
        return structured.merge_shard_groups(mapped, reducer, results)

    # ------------------------------------------------------------------ #
    # Zero-copy shared-memory structured path
    # ------------------------------------------------------------------ #
    def _shm_eligible(self, mapped: "ArrayPairs", reducer: "StructuredReducer") -> bool:
        """Whether this round should run through shared memory.

        Requires a forkable platform (descriptors are useless without pool
        workers), more than one shard, a round big enough to amortize the
        segment setup, fixed-width key/value/result dtypes (object arrays
        cannot live in a shared buffer), and a picklable reducer (the tiny
        reducer object still travels inside each task).
        """
        if not self._fork_available or self.num_shards <= 1:
            return False
        if len(mapped) < self.shm_min_pairs:
            return False
        if mapped.values.dtype.kind in "OV":
            return False
        if np.dtype(reducer.result_dtype(mapped.values)).kind in "OV":
            return False
        return self._picklable(reducer)

    def _shuffle_reduce_structured_shm(
        self,
        mapped: "ArrayPairs",
        reducer: "StructuredReducer",
        shard_ids: np.ndarray,
        counts: np.ndarray,
    ) -> "StructuredOutcome":
        """One structured round through the zero-copy shared-memory plane.

        The round's arrays are permuted into shard order (a stable
        counting-style sort of ``keys % num_shards``, so every shard is one
        contiguous slice and within-shard arrival order — the order the
        grouping semantics depend on — is preserved) and published into one
        shared input segment.  A second segment is preallocated for the
        outputs at full-round capacity: shard ``[start, end)`` writes its
        groups to the same ``[start, start + count)`` range, so writers never
        overlap and a resubmitted shard simply rewrites its own range.
        Workers receive descriptors and slice bounds only; the parent merges
        the per-shard group ranges back into global first-occurrence order
        and releases both segments, win or lose.
        """
        from repro.mapreduce import shm, structured

        keys = mapped.keys
        values = mapped.values
        n = len(mapped)
        order = structured.grouping_order(shard_ids)
        bounds = np.zeros(self.num_shards + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])

        segments = self.pool.segments
        in_refs = segments.publish(
            {
                "keys": keys[order],
                "values": values[order],
                "indices": order.astype(np.int64, copy=False),
            }
        )
        out_refs = segments.allocate(
            {
                "first": (np.dtype(np.int64), (n,)),
                "keys": (keys.dtype, (n,)),
                "rows": (
                    np.dtype(reducer.result_dtype(values)),
                    (n,) + tuple(reducer.result_row_shape(values)),
                ),
            }
        )
        tasks = [
            (reducer, in_refs, out_refs, int(bounds[shard]), int(bounds[shard + 1]))
            for shard in np.flatnonzero(counts)
        ]
        try:
            results = self.pool.map(shm.reduce_shard_from_refs, tasks)
            return self._merge_shm_results(mapped, reducer, in_refs, out_refs, tasks, results)
        finally:
            segments.release_refs(in_refs)
            segments.release_refs(out_refs)

    def _merge_shm_results(self, mapped, reducer, in_refs, out_refs, tasks, results):
        """Merge per-shard group ranges from the shared output segment.

        Builds the same ``(first, keys, rows, max_input)`` shard tuples the
        pickled path produces — as views into the shared output — and funnels
        them through :func:`~repro.mapreduce.structured.merge_shard_groups`,
        so both process paths share one merge (and its bit-compatibility
        contract).  A lost shard is reduced here, in-process, from its
        slice of the shared input.  The merge concatenates and reorders,
        which copies the views out of the segments; the caller releases them
        right after, once this frame (and every view) is gone.
        """
        from repro.mapreduce import structured

        view = self.pool.segments.view
        shard_groups = []
        for (_, _, _, start, end), result in zip(tasks, results):
            if isinstance(result, WorkerLostError):
                shard_groups.append(
                    structured.reduce_structured_shard(
                        (
                            reducer,
                            view(in_refs["keys"])[start:end],
                            view(in_refs["values"])[start:end],
                            view(in_refs["indices"])[start:end],
                        )
                    )
                )
                continue
            count, max_input = result
            stop = start + count
            shard_groups.append(
                (
                    view(out_refs["first"])[start:stop],
                    view(out_refs["keys"])[start:stop],
                    view(out_refs["rows"])[start:stop],
                    max_input,
                )
            )
        return structured.merge_shard_groups(mapped, reducer, shard_groups)


_BACKENDS: Dict[str, Callable[[Optional[int]], ExecutionBackend]] = {
    "serial": lambda num_shards: SerialBackend(),
    "vectorized": lambda num_shards: VectorizedBackend(),
    "process": lambda num_shards: ProcessBackend(num_shards),
}


def available_backends() -> List[str]:
    """Names accepted by :func:`get_backend` (and ``MREngine(backend=...)``)."""
    return sorted(_BACKENDS)


def get_backend(
    spec: Union[str, ExecutionBackend, None], *, num_shards: Optional[int] = None
) -> ExecutionBackend:
    """Resolve a backend specification to an :class:`ExecutionBackend`.

    ``spec`` may be a backend instance (returned as-is), a name from
    :func:`available_backends`, or ``None`` (the serial default).
    """
    if spec is None:
        spec = "serial"
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        factory = _BACKENDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; available: {available_backends()}"
        ) from None
    return factory(num_shards)
