"""One supervised worker pool behind every forked fan-out of the library.

The paper's algorithms target clusters where a machine can vanish mid-round;
the reproduction emulates that cluster with a forked worker pool and must
survive the same losses.  :class:`SupervisedPool` is the one owner of that
pool; :class:`~repro.experiments.suite.SuiteRunner` runs its ``--jobs N``
cells on it.

* **Lifecycle.**  Workers are forked lazily by the first :meth:`map` and
  reused until :meth:`close`.
* **Supervision.**  Tasks are submitted one at a time, at most one per
  worker, and :meth:`map` wakes on each result instead of sleeping a fixed
  interval.  Before a worker runs a task it records its pid and the task on
  a queue made before the fork, so the pool knows which task each worker
  holds.  A task is charged one attempt when it raises, when its own worker
  dies (a SIGKILLed worker silently drops its task, and
  ``multiprocessing.Pool`` would wait for it forever) or when it overruns
  ``timeout``.  A death or an overrun tears the pool down; the other tasks
  in flight are resubmitted uncharged on a fresh one after
  :data:`RETRY_BACKOFF_S`.  A task charged ``retries + 1`` times is *lost*:
  its result slot holds a :class:`WorkerLostError` and the caller answers
  for it.  Tasks must therefore be idempotent.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

from repro.utils.logging import get_logger

_LOG = get_logger("mapreduce.pool")

__all__ = ["RETRY_BACKOFF_S", "SupervisedPool", "WorkerLostError", "fork_available"]

#: Seconds slept between tearing down a lost pool and resubmitting its
#: in-flight tasks, so a transient cause (a dying neighbour, memory
#: pressure) has a moment to clear.
RETRY_BACKOFF_S = 0.05

# How often map() checks worker liveness and task deadlines while no
# result arrives; a result wakes it immediately.
_POLL_S = 0.05


def fork_available() -> bool:
    """True when forked worker pools may be used on this platform.

    Spawn-only platforms (and test/CI runs setting ``REPRO_MR_NO_FORK=1`` to
    simulate them) make every pool-based component degrade to in-process
    execution with identical semantics.
    """
    if os.environ.get("REPRO_MR_NO_FORK", "") not in ("", "0"):
        return False
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerLostError(RuntimeError):
    """A task the pool gave up on after its last allowed attempt.

    The attempt raised, its worker died, or it overran the pool's timeout.
    :meth:`SupervisedPool.map` returns this in the task's result slot rather
    than raising it, so the caller decides how to answer for the task.
    """


# In a worker: the pool's queue of ``(pid, task index)`` start records.
_STARTS = None


def _init_worker(starts) -> None:
    global _STARTS
    _STARTS = starts


def _run_recorded(func: Callable, index: int, task):
    """Worker side: record which task this worker starts, then run it."""
    _STARTS.put((os.getpid(), index))
    return func(task)


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
        self._starts = None
        self._baseline: frozenset = frozenset()

    @property
    def pids(self) -> frozenset:
        """Pids of the current workers (empty until the first :meth:`map`)."""
        # list() first: the pool's maintainer thread mutates the worker list.
        workers = list(self._pool._pool) if self._pool is not None else []
        return frozenset(worker.pid for worker in workers if worker.pid is not None)

    def _started(self):
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            # One queue per pool: a worker killed mid-put takes the queue's
            # lock with it, and the teardown that follows discards both.
            self._starts = context.SimpleQueue()
            self._pool = context.Pool(
                processes=self.processes, initializer=_init_worker, initargs=(self._starts,)
            )
            self._baseline = self.pids
        return self._pool

    def _dead_workers(self) -> frozenset:
        # The maintainer thread replaces a dead worker under a new pid within
        # milliseconds, so a pid missing from the baseline is the reliable
        # death signal; the exitcode probe covers the window before the
        # replacement.
        workers = list(self._pool._pool)
        exited = {w.pid for w in workers if w.exitcode is not None}
        return (self._baseline - self.pids) | exited

    def _read_starts(self, running: Dict[int, int]) -> None:
        """Fold the workers' start records into ``running`` (pid -> task index)."""
        while not self._starts.empty():
            pid, index = self._starts.get()
            running[pid] = index

    def _terminate(self) -> None:
        """Kill the workers outright: they are dead or hung, nothing to drain."""
        pool, self._pool = self._pool, None
        starts, self._starts = self._starts, None
        if pool is not None:
            pool.terminate()
            pool.join()
        if starts is not None:
            starts.close()

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
        running: Dict[int, int] = {}  # worker pid -> task it last started
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        epoch = 0  # bumped per pool teardown; stale callbacks are ignored
        if self._starts is not None:  # drop the records of an earlier map()
            self._read_starts({})

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
                    _run_recorded,
                    (func, index, tasks[index]),
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
            dead = self._dead_workers()
            # Read after the death check: a worker records its task before
            # it can die running it.
            self._read_starts(running)
            if dead:
                reason = "its pool worker died"
                culprits = {running[pid] for pid in dead if pid in running}
            else:
                culprits = {i for i, d in inflight.items() if d is not None and now >= d}
                if not culprits:
                    continue
                reason = f"it overran the {self.timeout:g}s timeout"
            while True:  # keep what finished before the loss was noticed
                try:
                    settle(done.get_nowait())
                except queue.Empty:
                    break
            # A worker that died before recording its task cannot be matched
            # to one; charging every task in flight then keeps map() finite.
            culprits = (culprits & inflight.keys()) or set(inflight)
            _LOG.warning(
                "task(s) %s: %s; rebuilding the pool for %d task(s) in flight",
                sorted(culprits), reason, len(inflight),
            )
            for index in sorted(inflight):
                if index in culprits:
                    charge(index, reason)
                else:
                    waiting.append(index)
            inflight.clear()
            running.clear()
            epoch += 1
            self._terminate()
            time.sleep(RETRY_BACKOFF_S)
        return results

    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 5.0) -> None:
        """Drain the workers; the pool is forked again lazily.

        Workers get ``timeout`` seconds to exit; stragglers are terminated.
        Idempotent.
        """
        pool, self._pool = self._pool, None
        starts, self._starts = self._starts, None
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
        if starts is not None:
            starts.close()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - garbage-collection best effort
        # At interpreter exit module globals may already be gone; the OS then
        # reaps the workers.
        try:
            self.close()
        except Exception:
            pass
