"""Structured-round benchmarks and the structured-beats-tuple smoke gates.

The tentpole claim of the array-native MR plane is that executing the MR
drivers as *structured rounds* (segment reductions over ``ArrayPairs``, see
:mod:`repro.mapreduce.structured`) beats executing the very same rounds
through the per-pair tuple path by at least 5x on a ≥100k-arc workload, with
bit-identical outputs and bit-identical ``MRMetrics``.  Since the execution
strategy is the backend's choice, the comparison is simply
``backend="vectorized"`` (segment fast path) versus ``backend="serial"``
(tuple path) on the same driver call.

``test_structured_cluster_native_beats_tuple_path`` and
``test_structured_bfs_beats_tuple_path`` are the CI smoke gates: they fail
the build if the ≥5x speedup or the bit-identity ever regresses.
``test_vectorized_beats_serial_count_round`` gates a single ≥100k-pair
degree-count round (one ``(dst, src)`` pair per directed arc, reduced with
``count``) the same way, without a speedup factor, and
``test_backends_identical_on_degree_count_round`` pins all three backends
bit-identical on it.  All measurements are appended to ``BENCH_mr.json`` via
the shared recorder so the perf trajectory is machine-readable across PRs.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _memory import process_peak_rss
from repro.baselines.bfs_diameter import mr_bfs_diameter
from repro.core.mr_native import mr_cluster_native
from repro.generators import barabasi_albert_graph
from repro.mapreduce import shm
from repro.mapreduce.backends import ArrayPairs, ProcessBackend, fork_available
from repro.mapreduce.engine import MREngine
from repro.mapreduce.structured import get_structured_reducer

SPEEDUP_GATE = 5.0

#: The shm-path gate: the process backend must beat the single-process
#: vectorized backend on a >= 1M-pair structured round (enforced where >= 2
#: CPUs are available; numbers are recorded everywhere).
SHM_SPEEDUP_GATE = 1.5


@pytest.fixture(scope="module")
def arc_graph():
    """Scale-free generator graph with >= 100k directed arcs (always: the
    acceptance gate is defined on this size, so quick mode keeps it)."""
    graph = barabasi_albert_graph(20_000, 6, seed=1)
    assert graph.num_directed_edges >= 100_000
    return graph


def interleaved_best(runners, repetitions=3):
    """Best-of-N wall-clock per runner, interleaved so a CPU-contention burst
    on a noisy CI machine degrades every contender alike."""
    timings = {name: [] for name in runners}
    results = {}
    for _ in range(repetitions):
        for name, runner in runners.items():
            start = time.perf_counter()
            results[name] = runner()
            timings[name].append(time.perf_counter() - start)
    return {name: min(values) for name, values in timings.items()}, results


# ------------------------------------------------------------------ #
# Smoke gates: structured rounds >= 5x over the tuple path, bit-identical
# ------------------------------------------------------------------ #
def test_structured_cluster_native_beats_tuple_path(arc_graph, mr_bench_recorder):
    timings, results = interleaved_best(
        {
            "serial": lambda: mr_cluster_native(arc_graph, 16, seed=3, backend="serial"),
            "vectorized": lambda: mr_cluster_native(arc_graph, 16, seed=3, backend="vectorized"),
        }
    )
    (serial_clustering, serial_engine) = results["serial"]
    (vector_clustering, vector_engine) = results["vectorized"]

    # Bit-identical clustering output ...
    assert np.array_equal(serial_clustering.assignment, vector_clustering.assignment)
    assert np.array_equal(serial_clustering.centers, vector_clustering.centers)
    assert np.array_equal(serial_clustering.distance, vector_clustering.distance)
    # ... and bit-identical MRMetrics (rounds, shuffled pairs, max reducer input).
    assert serial_engine.metrics.as_dict() == vector_engine.metrics.as_dict()

    pairs = serial_engine.metrics.shuffled_pairs
    for backend, seconds in timings.items():
        mr_bench_recorder(
            benchmark="mr_cluster_native",
            workload=f"ba-20k-m6-tau16/{arc_graph.num_directed_edges}-arcs",
            pairs=pairs,
            backend=backend,
            seconds=seconds,
            peak_rss_bytes=process_peak_rss(),
        )
    speedup = timings["serial"] / timings["vectorized"]
    assert speedup >= SPEEDUP_GATE, (
        f"structured mr_cluster_native must be >= {SPEEDUP_GATE}x over the tuple path on "
        f"{arc_graph.num_directed_edges} arcs, got {speedup:.1f}x "
        f"(serial {timings['serial'] * 1000:.0f} ms, vectorized {timings['vectorized'] * 1000:.0f} ms)"
    )


def test_structured_bfs_beats_tuple_path(arc_graph, mr_bench_recorder):
    timings, results = interleaved_best(
        {
            "serial": lambda: mr_bfs_diameter(arc_graph, seed=3, backend="serial"),
            "vectorized": lambda: mr_bfs_diameter(arc_graph, seed=3, backend="vectorized"),
        }
    )
    serial_result = results["serial"]
    vector_result = results["vectorized"]
    assert serial_result.estimate == vector_result.estimate
    assert serial_result.num_levels == vector_result.num_levels
    assert serial_result.metrics.as_dict() == vector_result.metrics.as_dict()

    pairs = serial_result.metrics.shuffled_pairs
    for backend, seconds in timings.items():
        mr_bench_recorder(
            benchmark="mr_bfs_diameter",
            workload=f"ba-20k-m6/{arc_graph.num_directed_edges}-arcs",
            pairs=pairs,
            backend=backend,
            seconds=seconds,
            peak_rss_bytes=process_peak_rss(),
        )
    speedup = timings["serial"] / timings["vectorized"]
    assert speedup >= SPEEDUP_GATE, (
        f"structured mr_bfs_diameter must be >= {SPEEDUP_GATE}x over the tuple path on "
        f"{arc_graph.num_directed_edges} arcs, got {speedup:.1f}x "
        f"(serial {timings['serial'] * 1000:.0f} ms, vectorized {timings['vectorized'] * 1000:.0f} ms)"
    )


# ------------------------------------------------------------------ #
# Shared-memory gate: process backend >= 1.5x over vectorized at >= 1M pairs
# ------------------------------------------------------------------ #
@pytest.fixture(scope="module")
def million_pair_workload():
    """A >= 1M-pair ``min`` round, large enough to engage the shm data plane."""
    rng = np.random.default_rng(11)
    n = 1_100_000
    keys = rng.integers(0, 150_000, size=n).astype(np.int64)
    values = rng.integers(0, 2**40, size=n).astype(np.int64)
    return ArrayPairs(keys, values)


def test_shm_process_backend_beats_vectorized_at_scale(million_pair_workload, mr_bench_recorder):
    """The tentpole gate: zero-copy shm rounds make the process backend win.

    Bit-identity (outputs and metrics) and clean segment teardown are
    asserted unconditionally; the >= 1.5x speedup over the vectorized
    backend additionally needs real parallelism, so it is enforced only on
    machines with >= 2 CPUs (CI) — single-CPU machines still record their
    numbers into BENCH_mr.json.
    """
    if not fork_available():
        pytest.skip("process backend requires fork")
    cpus = os.cpu_count() or 1
    backend = ProcessBackend(num_shards=max(2, cpus))
    assert backend._shm_eligible(million_pair_workload, get_structured_reducer("min"))

    vec_engine = MREngine(backend="vectorized")
    proc_engine = MREngine(backend=backend)
    try:
        timings, results = interleaved_best(
            {
                "vectorized": lambda: vec_engine.run_structured_round(
                    million_pair_workload, "min", label="shm-gate"
                ),
                "process-shm": lambda: proc_engine.run_structured_round(
                    million_pair_workload, "min", label="shm-gate"
                ),
            }
        )
        assert np.array_equal(results["vectorized"].keys, results["process-shm"].keys)
        assert np.array_equal(results["vectorized"].values, results["process-shm"].values)
        assert vec_engine.metrics.as_dict() == proc_engine.metrics.as_dict()
    finally:
        proc_engine.close()
        vec_engine.close()
    assert shm.active_repro_segments() == []

    pairs = len(million_pair_workload)
    for name, seconds in timings.items():
        mr_bench_recorder(
            benchmark="shm_structured_min_round",
            workload=f"uniform-min/{pairs}-pairs",
            pairs=pairs,
            backend=name,
            seconds=seconds,
            peak_rss_bytes=process_peak_rss(),
        )
    speedup = timings["vectorized"] / timings["process-shm"]
    if cpus < 2:
        pytest.skip(
            f"shm speedup gate needs >= 2 CPUs (got {cpus}); recorded {speedup:.2f}x"
        )
    assert speedup >= SHM_SPEEDUP_GATE, (
        f"shm process backend must be >= {SHM_SPEEDUP_GATE}x over vectorized on "
        f"{pairs} pairs, got {speedup:.2f}x "
        f"(vectorized {timings['vectorized'] * 1000:.0f} ms, "
        f"process-shm {timings['process-shm'] * 1000:.0f} ms)"
    )


# ------------------------------------------------------------------ #
# Single-round gates and per-backend shuffle throughput (BENCH_mr.json)
# ------------------------------------------------------------------ #
@pytest.fixture(scope="module")
def arcs(arc_graph):
    """``(src, dst)`` of every directed arc of ``arc_graph``."""
    src = np.repeat(np.arange(arc_graph.num_nodes, dtype=np.int64), np.diff(arc_graph.indptr))
    return src, arc_graph.indices.astype(np.int64)


@pytest.fixture(scope="module")
def degree_workload(arcs):
    """One ``(dst, src)`` pair per directed arc; ``count`` yields in-degrees."""
    src, dst = arcs
    assert dst.size >= 100_000
    return ArrayPairs(dst, src)


@pytest.fixture(scope="module")
def claim_workload(arcs):
    """One argmin round over every arc: (dst, (dist, src)) composite rows."""
    src, dst = arcs
    rows = np.column_stack((np.abs(src - dst) % 17, src))
    return ArrayPairs(dst, rows)


def test_vectorized_beats_serial_count_round(degree_workload, mr_bench_recorder):
    """Acceptance check: the segment-reduced count round beats the serial
    tuple path on >= 100k pairs, with bit-identical output and metrics."""
    engines = {name: MREngine(backend=name) for name in ("serial", "vectorized")}
    timings, results = interleaved_best(
        {
            name: lambda engine=engine: engine.run_structured_round(degree_workload, "count", label="bench")
            for name, engine in engines.items()
        },
        repetitions=7,
    )
    for backend, seconds in timings.items():
        mr_bench_recorder(
            benchmark="structured_count_round",
            workload=f"arc-degree-count/{len(degree_workload)}-pairs",
            pairs=len(degree_workload),
            backend=backend,
            seconds=seconds,
        )

    assert np.array_equal(results["serial"].keys, results["vectorized"].keys)
    assert np.array_equal(results["serial"].values, results["vectorized"].values)
    assert engines["serial"].metrics.as_dict() == engines["vectorized"].metrics.as_dict()
    assert timings["vectorized"] < timings["serial"], (
        f"vectorized count round ({timings['vectorized'] * 1000:.1f} ms) should beat the serial "
        f"tuple path ({timings['serial'] * 1000:.1f} ms) on {len(degree_workload)} pairs"
    )


def test_backends_identical_on_degree_count_round(degree_workload):
    """All three backends produce identical output and counters on the workload."""
    outcomes = {}
    for backend in ("serial", "vectorized", "process"):
        with MREngine(backend=backend, num_shards=4) as engine:
            out = engine.run_structured_round(degree_workload, "count")
            outcomes[backend] = (out.keys.tolist(), out.values.tolist(), engine.metrics.as_dict())
    for backend, outcome in outcomes.items():
        assert outcome == outcomes["serial"], backend


@pytest.mark.parametrize("backend", ["serial", "vectorized", "process"])
def test_bench_structured_argmin_round(benchmark, backend, claim_workload, mr_bench_recorder):
    with MREngine(backend=backend, num_shards=4) as engine:
        result = benchmark.pedantic(
            engine.run_structured_round,
            args=(claim_workload, "argmin"),
            rounds=1 if backend == "serial" else 3,
            iterations=1,
        )
        assert len(result) > 0
    mr_bench_recorder(
        benchmark="structured_argmin_round",
        workload=f"arc-claims/{len(claim_workload)}-pairs",
        pairs=len(claim_workload),
        backend=backend,
        seconds=benchmark.stats.stats.min,
    )
