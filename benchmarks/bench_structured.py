"""Structured-round benchmarks and the structured-beats-tuple smoke gates.

The claim of the array-native MR plane is that executing the MR drivers as
*structured rounds* (segment reductions over ``ArrayPairs``, see
:mod:`repro.mapreduce.structured`) beats executing the very same rounds
through the per-pair tuple path by at least 5x on a ≥100k-arc workload, with
bit-identical outputs and bit-identical ``MRMetrics``.  The tuple path is the
frozen reference in ``tests/mapreduce/mr_reference.py`` (it never runs in
production); ``tuple_path()`` sends every round of the same driver call
through it.

``test_structured_bfs_beats_tuple_path`` is the CI smoke gate: it fails the
build if the ≥5x speedup or the bit-identity ever regresses.
``test_segments_beat_tuple_path_count_round`` gates a single ≥100k-pair
degree-count round (one ``(dst, src)`` pair per directed arc, reduced with
``count``) the same way, without a speedup factor, and
``test_paths_identical_on_degree_count_round`` pins both paths
bit-identical on it.  All measurements are appended to ``BENCH_mr.json`` via
the shared recorder so the perf trajectory is machine-readable across PRs.
"""

from __future__ import annotations

import contextlib
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _memory import process_peak_rss
from repro.baselines.bfs_diameter import mr_bfs_diameter
from repro.generators import barabasi_albert_graph
from repro.mapreduce.engine import MREngine
from repro.mapreduce.structured import ArrayPairs

# The frozen reference lives with the tests, never in src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "mapreduce"))
from mr_reference import tuple_path

#: The two contenders: the tuple-path reference and the production segment pass.
PATHS = {"tuple-path": tuple_path, "segments": contextlib.nullcontext}

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
    on a noisy CI machine degrades every contender alike.  Each runner is
    keyed by its path name and runs inside that path's context."""
    timings = {name: [] for name in runners}
    results = {}
    for _ in range(repetitions):
        for name, runner in runners.items():
            with PATHS[name]():
                start = time.perf_counter()
                results[name] = runner()
                timings[name].append(time.perf_counter() - start)
    return {name: min(values) for name, values in timings.items()}, results


# ------------------------------------------------------------------ #
# Smoke gate: structured rounds >= 5x over the tuple path, bit-identical
# ------------------------------------------------------------------ #
def test_structured_bfs_beats_tuple_path(arc_graph, mr_bench_recorder):
    timings, results = interleaved_best(
        {name: lambda: mr_bfs_diameter(arc_graph, seed=3) for name in PATHS}
    )
    tuple_result = results["tuple-path"]
    segment_result = results["segments"]
    assert tuple_result.estimate == segment_result.estimate
    assert tuple_result.num_levels == segment_result.num_levels
    assert tuple_result.metrics.as_dict() == segment_result.metrics.as_dict()

    pairs = tuple_result.metrics.shuffled_pairs
    for path, seconds in timings.items():
        mr_bench_recorder(
            benchmark="mr_bfs_diameter",
            workload=f"ba-20k-m6/{arc_graph.num_directed_edges}-arcs",
            pairs=pairs,
            backend=path,
            seconds=seconds,
            peak_rss_bytes=process_peak_rss(),
        )
    speedup = timings["tuple-path"] / timings["segments"]
    assert speedup >= SPEEDUP_GATE, (
        f"structured mr_bfs_diameter must be >= {SPEEDUP_GATE}x over the tuple path on "
        f"{arc_graph.num_directed_edges} arcs, got {speedup:.1f}x "
        f"(tuple path {timings['tuple-path'] * 1000:.0f} ms, segments {timings['segments'] * 1000:.0f} ms)"
    )


# ------------------------------------------------------------------ #
# Single-round gates and per-path shuffle throughput (BENCH_mr.json)
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


def test_segments_beat_tuple_path_count_round(degree_workload, mr_bench_recorder):
    """Acceptance check: the segment-reduced count round beats the tuple
    path on >= 100k pairs, with bit-identical output and metrics."""
    engines = {name: MREngine() for name in PATHS}
    timings, results = interleaved_best(
        {
            name: lambda engine=engine: engine.run_structured_round(degree_workload, "count")
            for name, engine in engines.items()
        },
        repetitions=7,
    )
    for path, seconds in timings.items():
        mr_bench_recorder(
            benchmark="structured_count_round",
            workload=f"arc-degree-count/{len(degree_workload)}-pairs",
            pairs=len(degree_workload),
            backend=path,
            seconds=seconds,
        )

    assert np.array_equal(results["tuple-path"].keys, results["segments"].keys)
    assert np.array_equal(results["tuple-path"].values, results["segments"].values)
    assert engines["tuple-path"].metrics.as_dict() == engines["segments"].metrics.as_dict()
    assert timings["segments"] < timings["tuple-path"], (
        f"segment count round ({timings['segments'] * 1000:.1f} ms) should beat the "
        f"tuple path ({timings['tuple-path'] * 1000:.1f} ms) on {len(degree_workload)} pairs"
    )


def test_paths_identical_on_degree_count_round(degree_workload):
    """Both paths produce identical output and counters on the workload."""
    outcomes = {}
    for path, context in PATHS.items():
        engine = MREngine()
        with context():
            out = engine.run_structured_round(degree_workload, "count")
        outcomes[path] = (out.keys.tolist(), out.values.tolist(), engine.metrics.as_dict())
    for path, outcome in outcomes.items():
        assert outcome == outcomes["tuple-path"], path
