"""One supervised worker pool behind every forked fan-out of the library.

The paper's algorithms target clusters where a machine can vanish mid-round;
the reproduction emulates that cluster with a forked worker pool and must
survive the same losses.  :class:`SupervisedPool` is the one owner of that
pool: :class:`~repro.mapreduce.backends.ProcessBackend` runs its shard tasks
on it and :class:`~repro.experiments.suite.SuiteRunner` its cells.

* **Lifecycle.**  Workers are forked lazily by the first :meth:`map`, after
  :func:`~repro.mapreduce.shm.ensure_tracker_running` so their segment
  attachments land in the owner's resource tracker, and are reused until
  :meth:`close`.  The pool also owns its caller's
  :class:`~repro.mapreduce.shm.SharedArrayPool` (:attr:`segments`), so one
  ``close()`` drains the workers and then unlinks every segment.
* **Supervision.**  Tasks are submitted one at a time, at most one per
  worker, and :meth:`map` wakes on each result instead of sleeping a fixed
  interval.  A task is charged one attempt when it raises; every task in
  flight is charged one when a worker dies (a SIGKILLed worker silently
  drops its task, and ``multiprocessing.Pool`` would wait for it forever) or
  a task overruns ``timeout``, and the pool is then torn down and the
  in-flight tasks resubmitted on a fresh one after :data:`RETRY_BACKOFF_S`.
  A task charged ``retries + 1`` times is *lost*: its result slot holds a
  :class:`WorkerLostError` and the caller answers for it.  Tasks must
  therefore be idempotent.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

from repro.mapreduce import shm
from repro.utils.logging import get_logger

_LOG = get_logger("mapreduce.pool")

__all__ = ["RETRY_BACKOFF_S", "SupervisedPool", "WorkerLostError"]

#: Seconds slept between tearing down a lost pool and resubmitting its
#: in-flight tasks, so a transient cause (a dying neighbour, memory
#: pressure) has a moment to clear.
RETRY_BACKOFF_S = 0.05

# How often map() checks worker liveness and task deadlines while no
# result arrives; a result wakes it immediately.
_POLL_S = 0.05


class WorkerLostError(RuntimeError):
    """A task the pool gave up on after its last allowed attempt.

    The attempt raised, its worker died, or it overran the pool's timeout.
    :meth:`SupervisedPool.map` returns this in the task's result slot rather
    than raising it, so the caller decides how to answer for the task.
    """


class SupervisedPool:
    """A lazily forked worker pool that survives raising, dying and hung tasks.

    Parameters
    ----------
    workers:
        Requested worker count, capped at the CPU count.
    retries:
        Attempts a task may be charged beyond its first before it is
        returned lost.
    timeout:
        Wall-clock budget in seconds for one attempt of a task, counted from
        its submission (a submitted task starts at once: at most one task
        per worker is in flight).  ``None`` disables it.
    """

    def __init__(self, workers: int, *, retries: int = 2, timeout: Optional[float] = None) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout is not None and not timeout > 0:
            raise ValueError(f"timeout must be a positive number of seconds or None, got {timeout}")
        self.processes = max(1, min(int(workers), os.cpu_count() or 1))
        self.retries = int(retries)
        self.timeout = None if timeout is None else float(timeout)
        self._pool = None
        self._baseline: frozenset = frozenset()
        self._segments: Optional[shm.SharedArrayPool] = None

    @property
    def segments(self) -> shm.SharedArrayPool:
        """The caller's shared-memory segments, unlinked by :meth:`close`."""
        if self._segments is None:
            self._segments = shm.SharedArrayPool()
        return self._segments

    @property
    def pids(self) -> frozenset:
        """Pids of the current workers (empty until the first :meth:`map`)."""
        # list() first: the pool's maintainer thread mutates the worker list.
        workers = list(self._pool._pool) if self._pool is not None else []
        return frozenset(worker.pid for worker in workers if worker.pid is not None)

    def _started(self):
        if self._pool is None:
            shm.ensure_tracker_running()
            self._pool = multiprocessing.get_context("fork").Pool(processes=self.processes)
            self._baseline = self.pids
        return self._pool

    def _lost_worker(self) -> bool:
        # The maintainer thread replaces a dead worker under a new pid within
        # milliseconds, so a changed pid set is the reliable death signal;
        # the exitcode probe covers the window before the replacement.
        workers = list(self._pool._pool)
        return self.pids != self._baseline or any(w.exitcode is not None for w in workers)

    def _terminate(self) -> None:
        """Kill the workers outright: they are dead or hung, nothing to drain."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    # ------------------------------------------------------------------ #
    def map(self, func: Callable, tasks: Sequence) -> List:
        """``[func(task) for task in tasks]`` on the workers, in task order.

        A task that used up its attempts holds a :class:`WorkerLostError`
        in its slot instead of a result.
        """
        tasks = list(tasks)
        results: List = [None] * len(tasks)
        charges = [0] * len(tasks)
        waiting = deque(range(len(tasks)))
        inflight: Dict[int, Optional[float]] = {}  # task index -> deadline
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        epoch = 0  # bumped per pool teardown; stale callbacks are ignored

        def charge(index: int, reason: str) -> None:
            charges[index] += 1
            if charges[index] > self.retries:
                results[index] = WorkerLostError(
                    f"task {index} lost after {charges[index]} attempt(s): {reason}"
                )
            else:
                waiting.append(index)

        def settle(message) -> None:
            tag, index, ok, value = message
            if tag != epoch:
                return
            del inflight[index]
            if ok:
                results[index] = value
            else:
                _LOG.warning("pool task %d raised %r", index, value)
                charge(index, f"raised {value!r}")

        while waiting or inflight:
            while waiting and len(inflight) < self.processes:
                index = waiting.popleft()
                self._started().apply_async(
                    func,
                    (tasks[index],),
                    callback=lambda value, key=(epoch, index): done.put(key + (True, value)),
                    error_callback=lambda exc, key=(epoch, index): done.put(key + (False, exc)),
                )
                inflight[index] = None if self.timeout is None else time.monotonic() + self.timeout
            try:
                settle(done.get(timeout=_POLL_S))
            except queue.Empty:
                pass
            if not inflight:
                continue
            now = time.monotonic()
            if self._lost_worker():
                reason = "a pool worker died"
            elif any(d is not None and now >= d for d in inflight.values()):
                reason = f"a task overran the {self.timeout:g}s timeout"
            else:
                continue
            while True:  # keep what finished before the loss was noticed
                try:
                    settle(done.get_nowait())
                except queue.Empty:
                    break
            _LOG.warning("%s with %d task(s) in flight; rebuilding the pool", reason, len(inflight))
            for index in sorted(inflight):
                charge(index, reason)
            inflight.clear()
            epoch += 1
            self._terminate()
            time.sleep(RETRY_BACKOFF_S)
        return results

    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 5.0) -> None:
        """Drain the workers, then unlink every segment; both return lazily.

        Workers get ``timeout`` seconds to exit so they release their segment
        attachments cleanly; stragglers are terminated.  Idempotent.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            workers = list(pool._pool)
            pool.close()
            deadline = time.monotonic() + timeout
            while any(worker.is_alive() for worker in workers):
                if time.monotonic() >= deadline:
                    pool.terminate()
                    break
                time.sleep(0.01)
            pool.join()
        segments, self._segments = self._segments, None
        if segments is not None:
            segments.close()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - garbage-collection best effort
        # At interpreter exit module globals may already be gone; the OS then
        # reaps the workers and the resource tracker the segments.
        try:
            self.close()
        except Exception:
            pass
