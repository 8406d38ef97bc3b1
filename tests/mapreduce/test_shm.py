"""Shared-memory data plane: lifecycle, leak detection, bit-identity, fallbacks.

Covers the :mod:`repro.mapreduce.shm` module and its integration into
:class:`~repro.mapreduce.backends.ProcessBackend`:

* descriptor/segment mechanics (aligned packing, zero-copy views, explicit
  release, idempotent close);
* the leak detector: every segment allocated during a round is unlinked by
  the time the engine closes, *including* when a worker raises mid-round;
* bit-identity of the shm structured path against the serial and vectorized
  backends, for scalar, composite-row and 2-d workloads and for the ported
  MR drivers;
* the zero-pickled-arrays contract: pool task payloads contain descriptors
  only, asserted through a pickle-instrumented fake swapped in for
  ``backend.pool.map``;
* the no-fork (spawn-only) fallback: identical outcomes, no descriptors
  ever emitted; and
* the satellite fixes: memoized ``_picklable`` probes and graceful pool
  shutdown.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.baselines.bfs_diameter import mr_bfs_diameter
from repro.baselines.hadi import hadi_diameter
from repro.core.mr_native import mr_cluster_native
from repro.generators import barabasi_albert_graph
from repro.mapreduce import shm
from repro.mapreduce.backends import ArrayPairs, ProcessBackend, fork_available
from repro.mapreduce.engine import MREngine
from repro.mapreduce.structured import StructuredReducer, get_structured_reducer

needs_fork = pytest.mark.skipif(not fork_available(), reason="requires fork start method")


def shm_backend(num_shards=2, shm_min_pairs=1):
    """A ProcessBackend whose structured rounds always take the shm path."""
    return ProcessBackend(num_shards=num_shards, shm_min_pairs=shm_min_pairs)


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test must end with zero live rshm_* segments in /dev/shm."""
    assert shm.active_repro_segments() == []
    yield
    assert shm.active_repro_segments() == []


# ------------------------------------------------------------------ #
# SharedArrayRef / SharedArrayPool mechanics
# ------------------------------------------------------------------ #
class TestSharedArrayPool:
    def test_publish_view_roundtrip_zero_copy(self):
        pool = shm.SharedArrayPool()
        try:
            arrays = {
                "a": np.arange(100, dtype=np.int64),
                "b": np.linspace(0.0, 1.0, 33),
                "c": np.arange(24, dtype=np.uint64).reshape(6, 4),
            }
            refs = pool.publish(arrays)
            for name, array in arrays.items():
                view = pool.view(refs[name])
                assert view.dtype == array.dtype
                assert view.shape == array.shape
                assert np.array_equal(view, array)
                # All arrays share one segment at 64-byte-aligned offsets.
                assert refs[name].offset % 64 == 0
            assert len({ref.segment for ref in refs.values()}) == 1
        finally:
            pool.close()

    def test_allocate_then_release_unlinks(self):
        pool = shm.SharedArrayPool()
        refs = pool.allocate({"out": (np.dtype(np.int64), (50,))})
        segment = refs["out"].segment
        assert segment in shm.active_repro_segments()
        assert pool.active_segments() == [segment]
        pool.release(segment)
        assert segment not in shm.active_repro_segments()
        assert pool.active_segments() == []
        pool.release(segment)  # idempotent
        pool.close()  # idempotent

    def test_close_releases_everything(self):
        pool = shm.SharedArrayPool()
        pool.publish({"x": np.ones(10)})
        pool.allocate({"y": (np.dtype(np.int32), (4, 4))})
        assert len(pool.active_segments()) == 2
        pool.close()
        assert pool.active_segments() == []
        assert shm.active_repro_segments() == []
        pool.close()

    def test_object_dtype_rejected(self):
        pool = shm.SharedArrayPool()
        try:
            with pytest.raises(ValueError, match="cannot live in shared memory"):
                pool.publish({"bad": np.array([object()], dtype=object)})
        finally:
            pool.close()

    def test_view_of_foreign_ref_raises(self):
        pool = shm.SharedArrayPool()
        try:
            ref = shm.SharedArrayRef("rshm_nope_0", "<i8", (3,), 0)
            with pytest.raises(KeyError, match="not owned"):
                pool.view(ref)
        finally:
            pool.close()

    def test_ref_as_array_reconstructs_any_buffer(self):
        data = np.arange(6, dtype=np.int64)
        ref = shm.SharedArrayRef("unused", data.dtype.str, data.shape, 0)
        assert ref.nbytes == data.nbytes
        rebuilt = ref.as_array(data.tobytes())
        assert np.array_equal(rebuilt, data)


# ------------------------------------------------------------------ #
# Structured rounds through shared memory: bit-identity
# ------------------------------------------------------------------ #
def run_reference(batch, reducer_name):
    serial = MREngine(backend="serial")
    out = serial.run_structured_round(batch, reducer_name)
    return out, serial.metrics.as_dict()


@needs_fork
@pytest.mark.parametrize("reducer_name", ["min", "max", "sum", "first", "count", "bitwise_or"])
def test_shm_round_bit_identical_scalar(reducer_name):
    rng = np.random.default_rng(5)
    n = 4000
    keys = rng.integers(0, 200, size=n).astype(np.int64)
    if reducer_name == "bitwise_or":
        values = rng.integers(0, 2**30, size=n).astype(np.uint64)
    else:
        values = rng.integers(-1000, 1000, size=n).astype(np.int64)
    batch = ArrayPairs(keys, values)
    expected, expected_metrics = run_reference(batch, reducer_name)

    backend = shm_backend()
    reducer = get_structured_reducer(reducer_name)
    assert backend._shm_eligible(batch, reducer)
    with MREngine(backend=backend) as engine:
        got = engine.run_structured_round(batch, reducer_name)
        assert np.array_equal(expected.keys, got.keys)
        assert np.array_equal(expected.values, got.values)
        assert got.keys.dtype == expected.keys.dtype
        assert got.values.dtype == expected.values.dtype
        assert engine.metrics.as_dict() == expected_metrics


@needs_fork
def test_shm_round_bit_identical_composite_rows():
    """argmin over (cost, payload) composite rows — 2-d values, row outputs."""
    rng = np.random.default_rng(6)
    n = 3000
    keys = rng.integers(0, 150, size=n).astype(np.int64)
    rows = np.column_stack(
        (rng.integers(0, 50, size=n), rng.integers(0, 10**6, size=n))
    ).astype(np.int64)
    batch = ArrayPairs(keys, rows)
    expected, expected_metrics = run_reference(batch, "argmin")
    with MREngine(backend=shm_backend(num_shards=3)) as engine:
        got = engine.run_structured_round(batch, "argmin")
        assert np.array_equal(expected.keys, got.keys)
        assert np.array_equal(expected.values, got.values)
        assert engine.metrics.as_dict() == expected_metrics


@needs_fork
def test_shm_round_bit_identical_emit_mask_reducer():
    """cluster-claim emits a subset of groups; first-occurrence order must hold."""
    rng = np.random.default_rng(7)
    n = 5000
    keys = rng.integers(0, 300, size=n).astype(np.int64)
    tags = rng.integers(0, 2, size=n)
    cluster_ids = np.where(tags == 0, rng.integers(-1, 4, size=n), rng.integers(0, 7, size=n))
    distances = np.where(tags == 0, rng.integers(-1, 6, size=n), rng.integers(1, 9, size=n))
    rows = np.column_stack((tags, cluster_ids, distances)).astype(np.int64)
    batch = ArrayPairs(keys, rows)
    expected, expected_metrics = run_reference(batch, "cluster-claim")
    with MREngine(backend=shm_backend(num_shards=4)) as engine:
        got = engine.run_structured_round(batch, "cluster-claim")
        assert np.array_equal(expected.keys, got.keys)
        assert np.array_equal(expected.values, got.values)
        assert engine.metrics.as_dict() == expected_metrics


@needs_fork
@pytest.mark.parametrize(
    "driver",
    [
        lambda graph, backend: mr_cluster_native(graph, 8, seed=11, backend=backend),
        lambda graph, backend: mr_bfs_diameter(graph, seed=11, backend=backend),
        lambda graph, backend: hadi_diameter(
            graph, seed=11, num_registers=4, max_iterations=6, backend=backend
        ),
    ],
    ids=["cluster-native", "bfs-diameter", "hadi"],
)
def test_shm_drivers_bit_identical(driver):
    """The round-heavy drivers (with pinned CSR arrays) match the serial plane."""
    graph = barabasi_albert_graph(400, 3, seed=2)
    expected = driver(graph, "serial")
    got = driver(graph, shm_backend(num_shards=2))

    def normalize(result):
        if isinstance(result, tuple):  # mr_cluster_native -> (clustering, engine)
            clustering, engine = result
            return (
                clustering.assignment.tolist(),
                clustering.centers.tolist(),
                clustering.distance.tolist(),
                engine.metrics.as_dict(),
            )
        return (result.estimate, result.metrics.as_dict())

    assert normalize(expected) == normalize(got)


# ------------------------------------------------------------------ #
# Leak detection: engine close + worker exceptions mid-round
# ------------------------------------------------------------------ #
class ExplodingReducer(StructuredReducer):
    """Picklable reducer that fails inside the worker's segment reduction."""

    name = "exploding-test-reducer"

    def segment_reduce(self, sorted_values, starts, ends):
        raise RuntimeError("boom in worker")

    def reference(self, key, values):  # pragma: no cover - never reached
        yield (key, values[0])


@needs_fork
def test_worker_exception_mid_round_releases_segments():
    rng = np.random.default_rng(8)
    keys = rng.integers(0, 100, size=2000).astype(np.int64)
    batch = ArrayPairs(keys, keys.copy())
    backend = shm_backend()
    try:
        assert backend._shm_eligible(batch, ExplodingReducer())
        with pytest.raises(RuntimeError, match="boom in worker"):
            backend.shuffle_reduce_structured(batch, ExplodingReducer())
        # The failed round's segments were released in the driver's finally.
        assert shm.active_repro_segments() == []
    finally:
        backend.close()
    assert shm.active_repro_segments() == []


@needs_fork
def test_engine_close_unlinks_pinned_segments():
    arrays = {"indptr": np.arange(11, dtype=np.int64), "indices": np.arange(10, dtype=np.int64)}
    engine = MREngine(backend=shm_backend())
    pinned = engine.pin_shared("csr", arrays)
    assert np.array_equal(pinned["indptr"], arrays["indptr"])
    assert np.array_equal(pinned["indices"], arrays["indices"])
    assert len(shm.active_repro_segments()) == 1
    engine.close()  # close without release_pins must still unlink everything
    assert shm.active_repro_segments() == []


@needs_fork
def test_release_pins_unlinks_and_repins_replace_stale():
    backend = shm_backend()
    try:
        first = backend.pin_shared("csr", {"a": np.arange(5, dtype=np.int64)})
        assert len(shm.active_repro_segments()) == 1
        second = backend.pin_shared("csr", {"a": np.arange(7, dtype=np.int64)})
        # Re-pinning under the same name released the stale segment.
        assert len(shm.active_repro_segments()) == 1
        assert second["a"].size == 7
        backend.release_pins()
        assert shm.active_repro_segments() == []
        del first, second
    finally:
        backend.close()


def test_engine_pin_shared_forwards_none_values():
    with MREngine(backend="vectorized") as engine:
        pinned = engine.pin_shared("csr", {"indptr": np.arange(3), "weights": None})
        assert pinned["weights"] is None
        assert np.array_equal(pinned["indptr"], np.arange(3))
        engine.release_pins()


# ------------------------------------------------------------------ #
# Zero pickled arrays across the pool boundary
# ------------------------------------------------------------------ #
class RecordingPool:
    """Fake ``pool.map``: pickle-roundtrips every task, then runs it in-process."""

    def __init__(self):
        self.payloads = []

    def map(self, func, tasks):
        results = []
        for task in tasks:
            restored = pickle.loads(pickle.dumps(task))
            self.payloads.append(restored)
            results.append(func(restored))
        return results


@needs_fork
def test_shm_path_ships_descriptors_only():
    rng = np.random.default_rng(9)
    keys = rng.integers(0, 500, size=6000).astype(np.int64)
    values = rng.integers(0, 10**9, size=6000).astype(np.int64)
    batch = ArrayPairs(keys, values)
    expected, expected_metrics = run_reference(batch, "min")

    backend = shm_backend(num_shards=3)
    fake = RecordingPool()
    backend.pool.map = fake.map
    try:
        with MREngine(backend=backend) as engine:
            got = engine.run_structured_round(batch, "min")
            assert np.array_equal(expected.keys, got.keys)
            assert np.array_equal(expected.values, got.values)
            assert engine.metrics.as_dict() == expected_metrics
        assert fake.payloads, "the fake pool never saw a task"
        for task in fake.payloads:
            # No numpy array survives the pickle boundary, only descriptors.
            assert not shm.contains_ndarray(task)
            assert len(shm.flatten_refs(task)) > 0
    finally:
        backend.close()


# ------------------------------------------------------------------ #
# No-fork (spawn-only platform) fallback
# ------------------------------------------------------------------ #
def test_fork_available_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_MR_NO_FORK", "1")
    assert not fork_available()
    monkeypatch.setenv("REPRO_MR_NO_FORK", "0")
    assert fork_available() == ("fork" in __import__("multiprocessing").get_all_start_methods())


def test_no_fork_structured_rounds_bit_identical(monkeypatch):
    monkeypatch.setenv("REPRO_MR_NO_FORK", "1")
    rng = np.random.default_rng(10)
    keys = rng.integers(0, 100, size=3000).astype(np.int64)
    values = rng.integers(0, 10**6, size=3000).astype(np.int64)
    batch = ArrayPairs(keys, values)
    expected, expected_metrics = run_reference(batch, "min")

    backend = ProcessBackend(num_shards=4, shm_min_pairs=1)
    assert not backend._fork_available
    assert not backend._shm_eligible(batch, get_structured_reducer("min"))
    fake = RecordingPool()
    backend.pool.map = fake.map
    try:
        with MREngine(backend=backend) as engine:
            got = engine.run_structured_round(batch, "min")
            assert np.array_equal(expected.keys, got.keys)
            assert np.array_equal(expected.values, got.values)
            assert engine.metrics.as_dict() == expected_metrics
        # In-process fallback: no pool tasks, hence no shm descriptors emitted.
        assert fake.payloads == []
        assert shm.active_repro_segments() == []
    finally:
        backend.close()


def test_no_fork_pin_shared_is_identity(monkeypatch):
    monkeypatch.setenv("REPRO_MR_NO_FORK", "1")
    backend = ProcessBackend(num_shards=3)
    # pin_shared degrades to identity: the very same arrays come back and no
    # segment is ever created.
    array = np.arange(9, dtype=np.int64)
    pinned = backend.pin_shared("csr", {"a": array})
    assert pinned["a"] is array
    assert shm.active_repro_segments() == []
    backend.release_pins()
    backend.close()


def test_no_fork_driver_matches_fork_driver(monkeypatch):
    graph = barabasi_albert_graph(300, 3, seed=4)
    expected, expected_engine = mr_cluster_native(graph, 8, seed=5, backend="process")
    monkeypatch.setenv("REPRO_MR_NO_FORK", "1")
    got, got_engine = mr_cluster_native(graph, 8, seed=5, backend="process")
    assert np.array_equal(expected.assignment, got.assignment)
    assert np.array_equal(expected.centers, got.centers)
    assert np.array_equal(expected.distance, got.distance)
    assert expected_engine.metrics.as_dict() == got_engine.metrics.as_dict()
    expected_engine.close()
    got_engine.close()


# ------------------------------------------------------------------ #
# Satellites: picklable memoization + graceful shutdown
# ------------------------------------------------------------------ #
def test_picklable_probe_is_memoized(monkeypatch):
    backend = ProcessBackend(num_shards=2)
    reducer = get_structured_reducer("min")
    calls = {"count": 0}
    real_dumps = pickle.dumps

    def counting_dumps(obj, *args, **kwargs):
        calls["count"] += 1
        return real_dumps(obj, *args, **kwargs)

    import repro.mapreduce.backends as backends_module

    monkeypatch.setattr(backends_module.pickle, "dumps", counting_dumps)
    assert backend._picklable(reducer)
    assert calls["count"] == 1
    for _ in range(10):
        assert backend._picklable(reducer)
    assert calls["count"] == 1  # every later round hits the cache
    backend.close()


@needs_fork
def test_close_drains_pool_gracefully():
    backend = shm_backend()
    rng = np.random.default_rng(12)
    keys = rng.integers(0, 50, size=2000).astype(np.int64)
    backend.shuffle_reduce_structured(ArrayPairs(keys, keys.copy()), get_structured_reducer("min"))
    pids = backend.pool.pids
    assert pids
    backend.close()
    assert backend.pool.pids == frozenset()
    assert not any(shm._pid_alive(pid) for pid in pids)
    # Idempotent, and the backend lazily re-acquires a pool if used again.
    backend.close()
    backend.shuffle_reduce_structured(ArrayPairs(keys, keys.copy()), get_structured_reducer("min"))
    backend.close()


def test_shm_min_pairs_threshold():
    rng = np.random.default_rng(13)
    keys = rng.integers(0, 40, size=100).astype(np.int64)
    batch = ArrayPairs(keys, keys.copy())
    reducer = get_structured_reducer("min")
    expected = fork_available()
    assert not ProcessBackend(num_shards=2, shm_min_pairs=101)._shm_eligible(batch, reducer)
    assert ProcessBackend(num_shards=2, shm_min_pairs=100)._shm_eligible(batch, reducer) == expected
