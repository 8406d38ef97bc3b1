"""SupervisedPool on real forked workers: charging, resubmission, loss, timeouts, shutdown.

Faults come from seeded :class:`~repro.faults.FaultPlan`\\ s with a
``state_dir``, so a fault's ``times`` budget is global across worker
generations: a rebuilt pool's fresh workers never re-fire a spent fault.
Plans are installed before the pool forks, because workers inherit the plan
through the environment at fork time.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec
from repro.mapreduce.pool import SupervisedPool, WorkerLostError, fork_available

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork start method")

SITE = "test.pool.task"


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear_installed()
    yield
    faults.clear_installed()


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def install(tmp_path, **spec):
    state = tmp_path / "state"
    FaultPlan(specs=(FaultSpec(site=SITE, **spec),), state_dir=str(state)).install()
    return state


def square(x):
    faults.inject(SITE)
    return x * x


def square_logged(task):
    """``(log_dir, x) -> x * x``, logging every attempt; ``x == 3`` always raises."""
    log_dir, x = task
    with open(os.path.join(log_dir, f"attempts-{x}"), "a") as handle:
        handle.write(f"{os.getpid()}\n")
    if x == 3:
        raise ValueError("task 3 always fails")
    return x * x


def linger(seconds):
    """Leave a non-daemon thread running, so the worker cannot exit on close()."""
    threading.Thread(target=time.sleep, args=(seconds,)).start()
    return seconds


def sleep_or_die(task):
    """``("sleep", s)`` returns ``s`` after ``s`` seconds; ``("die", _)`` SIGKILLs its worker."""
    kind, seconds = task
    if kind == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(seconds)
    return seconds


def test_worker_lost_error_exported():
    assert issubclass(WorkerLostError, RuntimeError)


@pytest.mark.parametrize("kwargs", [{"retries": -4}, {"timeout": -1}, {"timeout": 0}])
def test_bad_budgets_rejected(kwargs):
    with pytest.raises(ValueError):
        SupervisedPool(2, **kwargs)
    # None still means "no timeout".
    assert SupervisedPool(2, timeout=None).timeout is None


def test_fork_available_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_MR_NO_FORK", "1")
    assert not fork_available()
    monkeypatch.setenv("REPRO_MR_NO_FORK", "0")
    assert fork_available() == ("fork" in multiprocessing.get_all_start_methods())


@needs_fork
def test_raising_task_is_charged_and_resubmitted(tmp_path):
    state = install(tmp_path, kind="error")
    with SupervisedPool(2, retries=1) as pool:
        pool.map(abs, [0])
        workers = pool.pids
        assert pool.map(square, range(6)) == [x * x for x in range(6)]
        # A raise costs the task an attempt but not the pool: same workers.
        assert pool.pids == workers
    assert len(list(state.glob("fault-0.*"))) == 1


@needs_fork
def test_killed_worker_tasks_resubmitted_in_order(tmp_path):
    state = install(tmp_path, kind="kill")
    with SupervisedPool(2, retries=1) as pool:
        pool.map(abs, [0])
        workers = pool.pids
        assert pool.map(square, range(10)) == [x * x for x in range(10)]
        assert pool.pids != workers, "a lost worker must rebuild the pool"
    assert len(list(state.glob("fault-0.*"))) == 1


@needs_fork
def test_many_tasks_survive_repeated_kills(tmp_path):
    """Stress: every worker generation dies at its 20th task, three times over."""
    state = install(tmp_path, kind="kill", at=20, times=3)
    start = time.monotonic()
    with SupervisedPool(4, retries=3) as pool:
        assert pool.map(square, range(200)) == [x * x for x in range(200)]
    assert time.monotonic() - start < 60
    assert len(list(state.glob("fault-0.*"))) == 3


@needs_fork
def test_task_lost_after_retries_plus_one_charges(tmp_path):
    with SupervisedPool(2, retries=2) as pool:
        results = pool.map(square_logged, [(str(tmp_path), x) for x in range(5)])
    assert isinstance(results[3], WorkerLostError)
    assert [r for x, r in enumerate(results) if x != 3] == [0, 1, 4, 16]
    assert len((tmp_path / "attempts-3").read_text().splitlines()) == 3
    assert len((tmp_path / "attempts-0").read_text().splitlines()) == 1


@needs_fork
def test_hang_past_timeout_rebuilds_the_pool(tmp_path):
    install(tmp_path, kind="hang", delay_s=30.0)
    with SupervisedPool(2, retries=1, timeout=0.5) as pool:
        pool.map(abs, [0])
        workers = pool.pids
        start = time.monotonic()
        assert pool.map(square, range(4)) == [0, 1, 4, 9]
        assert time.monotonic() - start < 10
        assert pool.pids != workers, "an overrun must rebuild the pool"


@needs_fork
def test_close_falls_back_to_terminate():
    pool = SupervisedPool(1)
    assert pool.map(linger, [60]) == [60]
    workers = pool.pids
    start = time.monotonic()
    pool.close(timeout=0.2)
    assert time.monotonic() - start < 5
    assert pool.pids == frozenset()
    assert not any(pid_alive(pid) for pid in workers)


@needs_fork
def test_close_drains_gracefully_and_the_pool_returns_lazily():
    pool = SupervisedPool(2)
    assert pool.map(square, range(4)) == [0, 1, 4, 9]
    workers = pool.pids
    assert workers
    pool.close()
    assert pool.pids == frozenset()
    assert not any(pid_alive(pid) for pid in workers)
    pool.close()  # idempotent
    assert pool.map(square, range(3)) == [0, 1, 4]
    pool.close()


@needs_fork
def test_dying_neighbour_never_charges_a_slow_task():
    """Only the dead worker's task is charged: the slow one is resubmitted free."""
    with SupervisedPool(2, retries=1) as pool:
        results = pool.map(sleep_or_die, [("sleep", 1.0), ("die", 0.0)])
    assert results[0] == 1.0
    assert isinstance(results[1], WorkerLostError)
    assert "lost after 2 attempt(s)" in str(results[1])
