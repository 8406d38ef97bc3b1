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
    every shard in a worker of a ``multiprocessing.Pool``.  One pool is forked
    lazily and reused across all of an engine's rounds (the reducer travels
    inside each task; a reducer that does not pickle runs in-process); where
    ``fork`` is unavailable the backend transparently degrades to in-process
    shard-at-a-time execution with identical semantics.  Large rounds (at
    least ``shm_min_pairs`` pairs, default 131072 or ``REPRO_SHM_MIN_PAIRS``)
    run on a *zero-copy shared-memory data plane* (:mod:`repro.mapreduce.shm`):
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
import time
import weakref
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro import faults
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (structured imports ArrayPairs)
    from repro.mapreduce.structured import StructuredOutcome, StructuredReducer

_LOG = get_logger("mapreduce.backends")

Pair = Tuple[Hashable, object]

__all__ = [
    "ArrayPairs",
    "ExecutionBackend",
    "SerialBackend",
    "VectorizedBackend",
    "ProcessBackend",
    "WorkerLostError",
    "get_backend",
    "available_backends",
    "fork_available",
    "shutdown_pool",
]


class WorkerLostError(RuntimeError):
    """A pool round could not complete: a worker died, hung past the round
    timeout, or raised from inside the pool.

    Raised by the supervised round executor so :class:`ProcessBackend` can
    reap the round, rebuild its pool, and retry — ``multiprocessing.Pool``
    itself would block forever on a task whose worker was SIGKILLed.
    """


def fork_available() -> bool:
    """True when forked worker pools may be used on this platform.

    Spawn-only platforms (and test/CI runs setting ``REPRO_MR_NO_FORK=1`` to
    simulate them) make every pool-based component degrade to in-process
    execution with identical semantics.
    """
    if os.environ.get("REPRO_MR_NO_FORK", "") not in ("", "0"):
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def shutdown_pool(pool, *, timeout: float = 5.0) -> None:
    """Gracefully shut down a ``multiprocessing.Pool``.

    ``close()`` + a bounded wait for the workers to drain and exit, falling
    back to ``terminate()`` only when the deadline passes — so workers get
    the chance to release attached shared-memory segments cleanly instead of
    dying mid-teardown.
    """
    pool.close()
    workers = list(getattr(pool, "_pool", None) or [])
    deadline = time.monotonic() + timeout
    while any(worker.is_alive() for worker in workers):
        if time.monotonic() >= deadline:
            pool.terminate()
            break
        time.sleep(0.01)
    pool.join()


def _pool_pids(pool) -> frozenset:
    """The pids of a pool's current workers.

    ``Pool``'s maintainer thread replaces a dead worker with a fresh process
    (new pid) within milliseconds, so a changed pid set is the reliable
    worker-death signal; the ``exitcode`` probe in :func:`_supervised_get`
    covers the short window before the replacement appears.  ``list()``
    first — the maintainer thread mutates ``_pool`` concurrently.
    """
    return frozenset(
        worker.pid
        for worker in list(getattr(pool, "_pool", None) or [])
        if worker.pid is not None
    )


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
    """Array-sharded shuffle reduced by a ``multiprocessing.Pool``.

    The key array is partitioned into ``num_shards`` shards by ``keys %
    num_shards`` (all pairs of a key land in one shard, so grouping stays
    exact; no per-pair tuples are built), and every shard is reduced with the
    same segment reductions as the vectorized backend in one worker call.
    Output groups are merged back in first-occurrence order, so the result is
    bit-identical to the serial backend.

    One worker pool is forked lazily on first use and *reused across all of
    an engine's rounds* — the (picklable) reducer travels inside each task, so
    the tens-of-milliseconds pool setup cost is paid once instead of per
    round, which makes the backend viable for round-heavy drivers.  A reducer
    that does not pickle runs in-process.  Release the pool with :meth:`close`
    (also called by ``MREngine.close()`` / the engine's context manager, and
    on garbage collection); a closed backend lazily re-creates the pool if
    used again.

    Rounds of at least ``shm_min_pairs`` pairs take the *zero-copy
    shared-memory path* (:mod:`repro.mapreduce.shm`): the key/value arrays
    are published into one shared segment in shard order, workers receive
    only ``(segment, dtype, shape, offset)`` descriptors plus a contiguous
    ``[start, end)`` slice per shard, and the reduced winner rows are written
    into a preallocated shared output segment — no pickled NumPy array ever
    crosses the pool boundary in either direction.  Smaller rounds (and
    key/value dtypes shared memory cannot hold) keep the descriptor-free
    pickled-shard path; fork-less platforms keep the in-process fallback.

    Parameters
    ----------
    num_shards:
        Number of shuffle shards (defaults to the CPU count).  Also the upper
        bound on pool workers.
    shm_min_pairs:
        Minimum structured-round size (in mapped pairs) for the shared-memory
        path; below it the fixed segment-setup cost outweighs the saved
        serialization.  Defaults to ``REPRO_SHM_MIN_PAIRS`` or 131072.
    max_round_retries:
        How many times a round whose pool worker died (or hung past
        ``round_timeout``) is retried on a rebuilt pool before the round
        falls back to bit-identical in-process execution.  Defaults to
        ``REPRO_MR_RETRIES`` or 2.
    round_timeout:
        Per-round wall-clock budget in seconds; a pool round running longer
        is treated like a lost worker (pool rebuilt, round retried).
        ``None`` (the default, or ``REPRO_MR_ROUND_TIMEOUT``) disables the
        timeout.
    retry_backoff:
        Base of the bounded exponential backoff slept before each retry
        (``backoff * 2**(attempt-1)``, capped at 2 s).  Defaults to
        ``REPRO_MR_RETRY_BACKOFF`` or 0.05.
    """

    name = "process"

    def __init__(
        self,
        num_shards: Optional[int] = None,
        *,
        shm_min_pairs: Optional[int] = None,
        max_round_retries: Optional[int] = None,
        round_timeout: Optional[float] = None,
        retry_backoff: Optional[float] = None,
    ) -> None:
        if num_shards is not None and num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards if num_shards is not None else (os.cpu_count() or 1)
        if shm_min_pairs is None:
            shm_min_pairs = int(os.environ.get("REPRO_SHM_MIN_PAIRS", 131072))
        self.shm_min_pairs = int(shm_min_pairs)
        if max_round_retries is None:
            max_round_retries = int(os.environ.get("REPRO_MR_RETRIES", 2))
        self.max_round_retries = max(0, int(max_round_retries))
        if round_timeout is None:
            raw_timeout = os.environ.get("REPRO_MR_ROUND_TIMEOUT", "")
            round_timeout = float(raw_timeout) if raw_timeout else None
        self.round_timeout = round_timeout if round_timeout and round_timeout > 0 else None
        if retry_backoff is None:
            retry_backoff = float(os.environ.get("REPRO_MR_RETRY_BACKOFF", 0.05))
        self.retry_backoff = max(0.0, float(retry_backoff))
        self._fork_available = fork_available()
        self._pool = None
        self._shm_pool = None
        self._pins: Dict[str, Dict[str, object]] = {}
        # _picklable memo: reducers are probed once per *object*, not once per
        # round — round-heavy drivers reuse one registered reducer for
        # hundreds of rounds, and each pickle.dumps probe costs more than the
        # lookup that replaces it.  Keyed weakly so dead reducers drop out.
        self._picklable_cache: "weakref.WeakKeyDictionary[object, bool]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------ #
    def _ensure_pool(self):
        """The persistent worker pool, forked lazily on first use."""
        if self._pool is None:
            from repro.mapreduce import shm

            # Start the resource tracker before forking so workers inherit
            # it — their attach-time registrations must land in the owner's
            # tracker, not in a private per-worker one.
            shm.ensure_tracker_running()
            context = multiprocessing.get_context("fork")
            workers = min(self.num_shards, os.cpu_count() or 1)
            self._pool = context.Pool(processes=workers)
        return self._pool

    def _ensure_shm_pool(self):
        """The backend's shared-segment pool, created lazily on first use."""
        if self._shm_pool is None:
            from repro.mapreduce import shm

            self._shm_pool = shm.SharedArrayPool()
        return self._shm_pool

    def close(self) -> None:
        """Shut down the pool and the shared-memory plane.

        The worker pool is drained gracefully (``close()``/``join()`` with a
        bounded wait; ``terminate()`` only as the timeout fallback) so
        workers release their segment attachments cleanly, then every shared
        segment this backend still owns — including any leaked by a failed
        round — is unlinked.  Both are re-created lazily if the backend is
        used again.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            shutdown_pool(pool)
        self._pins.clear()
        shm_pool, self._shm_pool = self._shm_pool, None
        if shm_pool is not None:
            shm_pool.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            # During interpreter teardown module globals are torn to None in
            # arbitrary order; if the machinery close() relies on is already
            # gone, the OS reclaims the pool processes and the resource
            # tracker reclaims the segments — don't spew a secondary
            # traceback over it.
            if time is None or multiprocessing is None or shutdown_pool is None:
                return
            self.close()
        except BaseException:
            pass

    # ------------------------------------------------------------------ #
    # Worker-loss recovery
    # ------------------------------------------------------------------ #
    def _rebuild_pool(self) -> None:
        """Tear the worker pool down hard; the next round re-creates it.

        ``terminate()`` rather than a graceful drain — the pool is being
        rebuilt precisely because a worker is dead or hung, so there is
        nothing to wait for.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def _supervised_map(self, pool, func, tasks: list) -> list:
        """``pool.map`` that detects worker death instead of blocking forever.

        A SIGKILLed worker silently drops its task, and ``Pool.map`` would
        then wait on a result that can never arrive.  Submitting with
        ``map_async`` and polling lets the driver notice the loss — a
        changed worker pid set (the maintainer thread respawns dead workers
        under new pids) or a non-``None`` ``exitcode`` — and raise
        :class:`WorkerLostError` promptly.  A configured ``round_timeout``
        turns a hung round into the same error; worker-side exceptions are
        wrapped in it too, so every pool-round failure funnels into one
        retryable signal.
        """
        map_async = getattr(pool, "map_async", None)
        if map_async is None:  # duck-typed pool stubs expose plain map only
            return pool.map(func, tasks)
        result = map_async(func, tasks)
        baseline = _pool_pids(pool)
        deadline = (
            time.monotonic() + self.round_timeout if self.round_timeout is not None else None
        )
        while not result.ready():
            result.wait(0.05)
            if result.ready():
                break
            workers = list(getattr(pool, "_pool", None) or [])
            if any(worker.exitcode is not None for worker in workers):
                raise WorkerLostError("pool worker died mid-round")
            if _pool_pids(pool) != baseline:
                raise WorkerLostError("pool worker was replaced mid-round")
            if deadline is not None and time.monotonic() >= deadline:
                raise WorkerLostError(
                    f"round exceeded the {self.round_timeout:g}s timeout"
                )
        try:
            return result.get()
        except Exception as exc:
            raise WorkerLostError(f"pool round raised: {exc!r}") from exc

    def _retry_wait(self, attempt: int) -> None:
        """Bounded exponential backoff before retry ``attempt`` (1-based)."""
        if self.retry_backoff > 0:
            time.sleep(min(self.retry_backoff * (2 ** (attempt - 1)), 2.0))

    def _run_tasks(self, func, tasks: list) -> list:
        """Run one round's tasks on the persistent pool, surviving worker loss.

        Each :class:`WorkerLostError` rebuilds the pool and retries the whole
        round after a bounded exponential backoff; once the
        ``max_round_retries`` budget is spent the round executes in-process
        (``func`` applied to every task in the driver), which is
        bit-identical — just not parallel.  Tasks must therefore be
        idempotent, which every shard reduction here is.
        """
        for attempt in range(self.max_round_retries + 1):
            if attempt:
                self._retry_wait(attempt)
            try:
                return self._supervised_map(self._ensure_pool(), func, tasks)
            except WorkerLostError as exc:
                _LOG.warning(
                    "pool round attempt %d/%d failed (%s); rebuilding pool",
                    attempt + 1,
                    self.max_round_retries + 1,
                    exc,
                )
                self._rebuild_pool()
        _LOG.warning("retry budget exhausted; running round in-process")
        return [func(task) for task in tasks]

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
        stale = self._pins.pop(name, None)
        if stale is not None:
            self._ensure_shm_pool().release_refs(stale)
        pool = self._ensure_shm_pool()
        refs = pool.publish(arrays)
        self._pins[name] = refs
        return {key: pool.view(ref) for key, ref in refs.items()}

    def release_pins(self) -> None:
        """Unpin (release) every array pinned via :meth:`pin_shared`."""
        if self._shm_pool is not None:
            for refs in self._pins.values():
                self._shm_pool.release_refs(refs)
        self._pins.clear()

    # ------------------------------------------------------------------ #
    def shuffle_reduce_structured(
        self, mapped: "ArrayPairs", reducer: "StructuredReducer"
    ) -> "StructuredOutcome":
        """Array-native sharded execution of a structured round.

        Shards are carved out of the key/value arrays by ``keys %
        num_shards`` — no per-pair tuple list is ever built — and each shard
        is segment-reduced in a persistent-pool worker.  Rounds of at least
        ``shm_min_pairs`` pairs run zero-copy through shared memory
        (:meth:`_shuffle_reduce_structured_shm`); smaller rounds ship pickled
        shard arrays.  Key arrays that cannot be mod-sharded
        (strings, floats) run the single-driver segment path instead; output
        and counters are identical on every path.
        """
        from repro.mapreduce import structured

        reducer.validate_values(mapped.values)
        if len(mapped) == 0 or not structured.segment_eligible(mapped.keys):
            return structured.execute_segments(mapped, reducer)
        keys = mapped.keys
        if keys.dtype.kind not in "iub" or self.num_shards == 1:
            return structured.execute_segments(mapped, reducer)

        if self._shm_eligible(mapped, reducer):
            return self._shuffle_reduce_structured_shm(mapped, reducer)

        shard_ids = keys.astype(np.int64, copy=False) % self.num_shards
        tasks = []
        for shard in range(self.num_shards):
            indices = np.flatnonzero(shard_ids == shard)
            if indices.size:
                tasks.append((reducer, keys[indices], mapped.values[indices], indices))
        if self._fork_available and len(tasks) > 1 and self._picklable(reducer):
            results = self._run_tasks(_structured_shard_task, tasks)
        else:
            results = [structured.reduce_structured_shard(task) for task in tasks]
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
        self, mapped: "ArrayPairs", reducer: "StructuredReducer"
    ) -> "StructuredOutcome":
        """One structured round through the zero-copy shared-memory plane.

        The round's arrays are permuted into shard order (a stable
        counting-style sort of ``keys % num_shards``, so every shard is one
        contiguous slice and within-shard arrival order — the order the
        grouping semantics depend on — is preserved) and published into one
        shared input segment.  A second segment is preallocated for the
        outputs at full-round capacity: shard ``[start, end)`` writes its
        groups to the same ``[start, start + count)`` range, so writers never
        overlap.  Workers receive descriptors and slice bounds only; the
        driver merges the per-shard group ranges back into global
        first-occurrence order and releases both segments, win or lose.
        """
        from repro.mapreduce import shm, structured

        keys = mapped.keys
        values = mapped.values
        n = len(mapped)
        shard_ids = keys.astype(np.int64, copy=False) % self.num_shards
        order = structured.grouping_order(shard_ids)
        counts = np.bincount(shard_ids, minlength=self.num_shards)
        bounds = np.zeros(self.num_shards + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])

        # Worker loss mid-round is survivable because the round is
        # idempotent: every attempt publishes fresh input/output segments
        # (the failed attempt's segments are unlinked in its ``finally``
        # before the pool is rebuilt, so nothing leaks even when a worker
        # died holding an attachment) and each shard writes only its own
        # output range.  After the retry budget the round runs through the
        # driver-side segment path — bit-identical, just not parallel.
        for attempt in range(self.max_round_retries + 1):
            if attempt:
                self._retry_wait(attempt)
            pool = self._ensure_shm_pool()
            in_refs = pool.publish(
                {
                    "keys": keys[order],
                    "values": values[order],
                    "indices": order.astype(np.int64, copy=False),
                }
            )
            out_refs = pool.allocate(
                {
                    "first": (np.dtype(np.int64), (n,)),
                    "keys": (keys.dtype, (n,)),
                    "rows": (
                        np.dtype(reducer.result_dtype(values)),
                        (n,) + tuple(reducer.result_row_shape(values)),
                    ),
                }
            )
            tasks = []
            for shard in range(self.num_shards):
                start, end = int(bounds[shard]), int(bounds[shard + 1])
                if end > start:
                    tasks.append((reducer, in_refs, out_refs, start, end))
            try:
                if len(tasks) > 1:
                    results = self._supervised_map(
                        self._ensure_pool(), shm.reduce_shard_from_refs, tasks
                    )
                else:
                    results = [shm.reduce_shard_from_refs(task) for task in tasks]
                return self._merge_shm_results(mapped, reducer, out_refs, tasks, results)
            except (WorkerLostError, OSError) as exc:
                _LOG.warning(
                    "shm round attempt %d/%d failed (%s); rebuilding pool",
                    attempt + 1,
                    self.max_round_retries + 1,
                    exc,
                )
                self._rebuild_pool()
            finally:
                pool.release_refs(in_refs)
                pool.release_refs(out_refs)
        _LOG.warning("shm retry budget exhausted; running round in the driver")
        return structured.execute_segments(mapped, reducer)

    def _merge_shm_results(self, mapped, reducer, out_refs, tasks, results):
        """Merge per-shard group ranges from the shared output segment.

        Builds the same ``(first, keys, rows, max_input)`` shard tuples the
        pickled path produces — as views into the shared output — and funnels
        them through :func:`~repro.mapreduce.structured.merge_shard_groups`,
        so both process paths share one merge (and its bit-compatibility
        contract).  The merge concatenates and reorders, which copies the
        views out of the segment; the caller releases it right after.
        """
        from repro.mapreduce import structured

        pool = self._ensure_shm_pool()
        first_view = pool.view(out_refs["first"])
        keys_view = pool.view(out_refs["keys"])
        rows_view = pool.view(out_refs["rows"])
        shard_groups = []
        for (_, _, _, start, _), (count, max_input) in zip(tasks, results):
            stop = start + count
            shard_groups.append(
                (first_view[start:stop], keys_view[start:stop], rows_view[start:stop], max_input)
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
