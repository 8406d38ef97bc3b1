"""Chaos suite for the process backend: seeded faults, bit-identical recovery.

Every scenario installs a deterministic :class:`~repro.faults.FaultPlan`,
runs a round through the :class:`ProcessBackend`, and asserts the output and
metrics are bit-identical to the fault-free serial reference — plus zero
leaked ``rshm_*`` segments.  Kill faults use a ``state_dir`` so the ticket is
global: the respawned worker of the rebuilt pool must not re-fire it.
Scenarios where a worker-only fault site must never fire outside a worker
run in a forked child, so a wrongly fired ``kill`` shows up as exit code -9
instead of killing pytest.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec
from repro.mapreduce import shm
from repro.mapreduce.backends import ArrayPairs, ProcessBackend, fork_available
from repro.mapreduce.engine import MREngine
from repro.mapreduce.pool import WorkerLostError

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork start method")


@pytest.fixture(autouse=True)
def _clean_faults_and_segments():
    """Plans never outlive a test; segments never leak past one."""
    faults.clear_installed()
    assert shm.active_repro_segments() == []
    yield
    faults.clear_installed()
    assert shm.active_repro_segments() == []


def chaos_backend(**kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("shm_min_pairs", 1)
    return ProcessBackend(**kwargs)


def structured_batch(seed=5, n=4000, num_keys=200):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, num_keys, size=n).astype(np.int64)
    values = rng.integers(-1000, 1000, size=n).astype(np.int64)
    return ArrayPairs(keys, values)


def serial_reference(batch, reducer_name):
    engine = MREngine(backend="serial")
    out = engine.run_structured_round(batch, reducer_name)
    return out, engine.metrics.as_dict()


def assert_bit_identical(batch, reducer_name, backend):
    expected, expected_metrics = serial_reference(batch, reducer_name)
    with MREngine(backend=backend) as engine:
        got = engine.run_structured_round(batch, reducer_name)
        assert np.array_equal(expected.keys, got.keys)
        assert np.array_equal(expected.values, got.values)
        assert engine.metrics.as_dict() == expected_metrics


def exit_code_in_child(body) -> int:
    """Run ``body`` in a forked child and return its exit code.

    0 when ``body`` ran without raising, 1 when it raised, and the negated
    signal number when something (a fault fired outside a worker) killed it.
    """

    def main():
        code = 0
        try:
            body()
        except BaseException:
            traceback.print_exc()
            code = 1
        os._exit(code)

    child = multiprocessing.get_context("fork").Process(target=main)
    child.start()
    child.join(120)
    if child.is_alive():  # pragma: no cover - a hang is a failure, not a wait
        child.kill()
        child.join()
    return child.exitcode


# ------------------------------------------------------------------ #
# Worker death mid-round
# ------------------------------------------------------------------ #
@needs_fork
class TestWorkerDeath:
    def test_shm_round_survives_worker_kill(self, tmp_path):
        """SIGKILL one worker mid shm round; the retried round is identical."""
        FaultPlan(
            specs=(FaultSpec(site="mr.worker.shm", kind="kill"),),
            state_dir=str(tmp_path / "state"),
        ).install()
        backend = chaos_backend()
        try:
            assert_bit_identical(structured_batch(), "min", backend)
        finally:
            backend.close()

    def test_pickled_shard_round_survives_worker_kill(self, tmp_path):
        """SIGKILL one worker mid pickled-shard round (below the shm threshold)."""
        state = tmp_path / "state"
        FaultPlan(
            specs=(FaultSpec(site="mr.worker.structured", kind="kill"),),
            state_dir=str(state),
        ).install()
        backend = chaos_backend(shm_min_pairs=10**9)
        try:
            assert_bit_identical(structured_batch(seed=7), "sum", backend)
        finally:
            backend.close()
        assert len(list(state.glob("fault-0.*"))) == 1

    def test_repeated_kills_fall_back_in_process(self, tmp_path):
        """More kills than retries: the driver-side fallback still answers."""
        FaultPlan(
            specs=(FaultSpec(site="mr.worker.shm", kind="kill", times=10),),
            state_dir=str(tmp_path / "state"),
        ).install()
        backend = chaos_backend(max_round_retries=1)
        try:
            # With times=10 every pool attempt dies; the lost shards are
            # reduced in-process, which never runs the instrumented task.
            assert_bit_identical(structured_batch(seed=8), "sum", backend)
        finally:
            backend.close()

    def test_repeated_kills_fall_back_in_process_pickled(self, tmp_path):
        """The pickled-path twin: lost shards never run the worker task in-process."""
        FaultPlan(
            specs=(FaultSpec(site="mr.worker.structured", kind="kill", times=10),),
            state_dir=str(tmp_path / "state"),
        ).install()

        def body():
            backend = chaos_backend(max_round_retries=1, shm_min_pairs=10**9)
            assert_bit_identical(structured_batch(seed=8), "sum", backend)

        assert exit_code_in_child(body) == 0

    @pytest.mark.parametrize("kind", ["kill", "error"])
    def test_one_shard_round_fires_no_worker_site(self, tmp_path, kind):
        """All keys in one shard: the round needs no pool and no segments."""
        state = tmp_path / "state"
        FaultPlan(
            specs=(FaultSpec(site="mr.worker.shm", kind=kind, times=10),),
            state_dir=str(state),
        ).install()
        batch = structured_batch(seed=9)
        even = ArrayPairs(batch.keys * 2, batch.values)  # every key in shard 0 of 2

        def body():
            assert_bit_identical(even, "min", chaos_backend(shm_min_pairs=1))

        assert exit_code_in_child(body) == 0
        assert list(state.glob("fault-*")) == []


# ------------------------------------------------------------------ #
# Attach failures and hangs
# ------------------------------------------------------------------ #
@needs_fork
class TestInfraFaults:
    def test_shm_attach_error_recovers(self, tmp_path):
        FaultPlan(
            specs=(FaultSpec(site="shm.attach", kind="error", message="attach refused"),),
            state_dir=str(tmp_path / "state"),
        ).install()
        backend = chaos_backend()
        try:
            assert_bit_identical(structured_batch(seed=11), "max", backend)
        finally:
            backend.close()

    def test_hung_worker_trips_round_timeout(self, tmp_path):
        """A worker hang past the round timeout is retried, not waited out."""
        FaultPlan(
            specs=(FaultSpec(site="mr.worker.shm", kind="hang", delay_s=5.0),),
            state_dir=str(tmp_path / "state"),
        ).install()
        backend = chaos_backend(round_timeout=0.5)
        try:
            assert_bit_identical(structured_batch(seed=13), "count", backend)
        finally:
            backend.close()

    def test_error_budget_exhaustion_falls_back(self, tmp_path):
        """Error faults outlasting every pool retry hit the terminal fallback.

        A pool map result is ready only once every task has finished, so
        each of the three pool attempts runs both shard tasks, and a global
        ticket budget of shards x attempts makes the accounting exact: every
        pool task fails, and the in-process fallback runs with the budget
        already spent.
        """
        state = tmp_path / "state"
        shards, attempts = 2, 3
        FaultPlan(
            specs=(FaultSpec(site="mr.worker.structured", kind="error", times=shards * attempts),),
            state_dir=str(state),
        ).install()
        backend = chaos_backend(num_shards=shards, max_round_retries=attempts - 1, shm_min_pairs=10**9)
        try:
            assert_bit_identical(structured_batch(seed=17), "min", backend)
        finally:
            backend.close()
        assert len(list(state.glob("fault-0.*"))) == shards * attempts


# ------------------------------------------------------------------ #
# Supervision plumbing
# ------------------------------------------------------------------ #
class TestSupervision:
    def test_worker_lost_error_exported(self):
        assert issubclass(WorkerLostError, RuntimeError)

    @needs_fork
    def test_run_tasks_gives_up_to_in_process(self):
        """Shards the pool returns lost are reduced in-process, on both paths."""
        for shm_min_pairs in (1, 10**9):
            backend = chaos_backend(num_shards=3, shm_min_pairs=shm_min_pairs)
            calls = []

            def losing_map(func, tasks):
                calls.append(len(tasks))
                return [WorkerLostError("synthetic") for _ in tasks]

            backend.pool.map = losing_map
            try:
                assert_bit_identical(structured_batch(seed=19), "sum", backend)
            finally:
                backend.close()
            assert calls == [3], shm_min_pairs

    @needs_fork
    def test_supervised_map_degrades_to_plain_map(self):
        """A plain ``map`` swapped in for the supervised one drives the round."""

        class MapOnly:
            def map(self, func, tasks):
                return [func(task) for task in tasks]

        backend = chaos_backend(shm_min_pairs=10**9)
        backend.pool.map = MapOnly().map
        try:
            assert_bit_identical(structured_batch(seed=23), "max", backend)
        finally:
            backend.close()

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_round_retries": -4}, {"round_timeout": -1}, {"round_timeout": 0}],
    )
    def test_bad_budgets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ProcessBackend(num_shards=2, **kwargs)
        # None still means "no timeout".
        assert ProcessBackend(num_shards=2, round_timeout=None).pool.timeout is None


# ------------------------------------------------------------------ #
# Orphan reaping
# ------------------------------------------------------------------ #
class TestReapOrphans:
    @staticmethod
    def _make_orphan(suffix):
        """A segment named for a certainly-dead pid, untracked (crash sim)."""
        from multiprocessing import resource_tracker, shared_memory

        dead_pid = 2**22 - 1
        while shm._pid_alive(dead_pid):  # pragma: no cover - astronomically rare
            dead_pid -= 1
        orphan_name = f"rshm_{dead_pid}_{suffix}"
        segment = shared_memory.SharedMemory(name=orphan_name, create=True, size=64)
        resource_tracker.unregister(segment._name, "shared_memory")
        segment.close()
        return orphan_name

    def test_dead_pid_segment_reaped(self):
        """A segment named for a dead pid is unlinked; live ones are kept."""
        from multiprocessing import shared_memory

        orphan_name = self._make_orphan("chaos")
        try:
            reaped = shm.reap_orphans()
            assert orphan_name in reaped
            assert orphan_name not in shm.active_repro_segments()
        finally:
            try:
                shared_memory.SharedMemory(name=orphan_name).unlink()
            except FileNotFoundError:
                pass

    def test_own_segments_never_reaped(self):
        pool = shm.SharedArrayPool()
        try:
            refs = pool.publish({"x": np.arange(8)})
            segment = refs["x"].segment
            assert shm.reap_orphans() == []
            assert segment in shm.active_repro_segments()
        finally:
            pool.close()

    def test_close_sweeps_orphans(self):
        """SharedArrayPool.close() doubles as a crash-recovery sweep."""
        from multiprocessing import shared_memory

        orphan_name = self._make_orphan("sweep")
        try:
            pool = shm.SharedArrayPool()
            pool.close()
            assert orphan_name not in shm.active_repro_segments()
        finally:
            try:
                shared_memory.SharedMemory(name=orphan_name).unlink()
            except FileNotFoundError:
                pass
