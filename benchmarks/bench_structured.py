"""Structured-round benchmarks and the structured-beats-tuple smoke gates.

The claim of the array-native MR plane is that executing the MR drivers as
*structured rounds* (segment reductions over ``ArrayPairs``, see
:mod:`repro.mapreduce.structured`) beats executing the very same rounds
through the per-pair tuple path by at least 5x on a ≥100k-arc workload, with
bit-identical outputs and bit-identical ``MRMetrics``.  Since the execution
strategy is the backend's choice, the comparison is simply
``backend="vectorized"`` (segment fast path) versus ``backend="serial"``
(tuple path) on the same driver call.

``test_structured_bfs_beats_tuple_path`` is the CI smoke gate: it fails the
build if the ≥5x speedup or the bit-identity ever regresses.
``test_vectorized_beats_serial_count_round`` gates a single ≥100k-pair
degree-count round (one ``(dst, src)`` pair per directed arc, reduced with
``count``) the same way, without a speedup factor, and
``test_backends_identical_on_degree_count_round`` pins both backends
bit-identical on it.  All measurements are appended to ``BENCH_mr.json`` via
the shared recorder so the perf trajectory is machine-readable across PRs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _memory import process_peak_rss
from repro.baselines.bfs_diameter import mr_bfs_diameter
from repro.generators import barabasi_albert_graph
from repro.mapreduce.backends import ArrayPairs
from repro.mapreduce.engine import MREngine

SPEEDUP_GATE = 5.0


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
# Smoke gate: structured rounds >= 5x over the tuple path, bit-identical
# ------------------------------------------------------------------ #
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
    """Both backends produce identical output and counters on the workload."""
    outcomes = {}
    for backend in ("serial", "vectorized"):
        engine = MREngine(backend=backend)
        out = engine.run_structured_round(degree_workload, "count")
        outcomes[backend] = (out.keys.tolist(), out.values.tolist(), engine.metrics.as_dict())
    for backend, outcome in outcomes.items():
        assert outcome == outcomes["serial"], backend


@pytest.mark.parametrize("backend", ["serial", "vectorized"])
def test_bench_structured_argmin_round(benchmark, backend, claim_workload, mr_bench_recorder):
    engine = MREngine(backend=backend)
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
