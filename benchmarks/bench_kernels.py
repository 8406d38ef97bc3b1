"""Frontier-kernel benchmarks and the kernel-layer no-regression gates.

The kernel layer makes six performance claims, each of which is *also* a
bit-identity claim — the optimized path must produce byte-for-byte the same
arrays as the frozen reference it replaces.  Gate 1's references live in
``tests/graph/kernel_reference.py`` and gate 6's in
``tests/core/quotient_reference.py`` (they never run in production); gate
3's push-only baseline is the production kernel with its private pull
threshold patched to 0, and the per-source baselines of gates 2 and 4 are
the production single-source kernels:

1. **Sort-free claims**: scatter-based winner selection in
   :func:`repro.graph.kernels.claim_first` / ``claim_min`` is at least
   ``CLAIMS_GATE``x faster than the original ``argsort`` / ``lexsort``
   selection on a ≥1M-pair level.
2. **Pair-id hop rows**: :func:`repro.graph.kernels.msbfs_levels` computes
   every hop row of gate 4's road-network quotient, in the quotient layer's
   :func:`~repro.graph.kernels.row_tile` tiles, at least ``MSBFS_GATE``x
   faster than one :func:`~repro.graph.kernels.frontier_expansion` per
   source.
3. **Direction-optimizing BFS**: Beamer-style push/pull switching beats the
   push-only expansion on an R-MAT sample (low-diameter scale-free graphs are
   exactly the regime pull mode targets).
4. **Batched weighted rows**: :func:`repro.graph.kernels.delta_stepping_rows`
   relaxes every source of the weighted flavour of that quotient, in the
   same tiles, at least ``ROWS_GATE``x faster than one
   :func:`~repro.graph.kernels.delta_stepping` call per source.
5. **Bounded quotient diameter**: :func:`repro.core.quotient.quotient_diameter`
   finds the exact weighted diameter of an R-MAT quotient from a few rows at
   least ``DIAMETER_GATE``x faster than the full sweep
   (``quotient_apsp(q).max()``), with the same value; the hop flavour is
   recorded alongside, ungated.
6. **Packed quotient build**: :func:`repro.core.quotient.build_quotient_graph`
   builds gate 5's R-MAT quotient at least ``BUILD_GATE``x faster than the
   frozen ``reference_quotient`` of ``tests/core/quotient_reference.py``,
   with identical ``indptr``, ``indices`` and ``weights``.

Every measurement lands in ``BENCH_kernels.json`` via the shared recorder so
the kernel-perf trajectory stays machine-readable across PRs; CI runs this
file in quick mode (``REPRO_BENCH_QUICK=1``) with ``REPRO_KERNEL_STATS=1`` so
the per-level direction counters are embedded in the artifact.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import DecompositionPipeline
from repro.core.quotient import build_quotient_graph, quotient_apsp, quotient_diameter
from repro.generators import road_network_graph
from repro.generators.rmat import rmat_graph
from repro.graph import kernels
from repro.graph.components import largest_component
from repro.graph.diameter_exact import bounded_diameter

# The frozen references live with the tests, never in src/.
_TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path[:0] = [str(_TESTS / "graph"), str(_TESTS / "core")]
from kernel_reference import (
    forced_direction,
    sorted_claim_first,
    sorted_claim_min,
)
from quotient_reference import reference_quotient

CLAIMS_GATE = 2.0
MSBFS_GATE = 5.0
ROWS_GATE = 5.0
DIAMETER_GATE = 5.0
BUILD_GATE = 3.0

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: The claims gate is defined at >= 1M contested pairs per level.
CLAIM_PAIRS = 1_000_000 if QUICK else 2_000_000
#: R-MAT scale for the direction gate (2^scale nodes, ~16 arcs per node).
RMAT_SCALE = 14 if QUICK else 16
#: Side of the road grid whose quotient the hop-rows and weighted-rows gates relax.
ROAD_SIDE = 40 if QUICK else 50
#: R-MAT scale of the graph whose quotients (n // 50 clusters) gates 5 and 6 measure.
QUOTIENT_RMAT_SCALE = 14 if QUICK else 15


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
# Gate 1: sort-free claims >= 2x over argsort/lexsort, bit-identical
# ------------------------------------------------------------------ #
def test_sortfree_claims_gate(kernel_bench_recorder):
    n = 1 << 20
    rng = np.random.default_rng(0)
    # Frontier-claiming regime: many claimants per contested target.
    dst = rng.integers(0, n // 8, CLAIM_PAIRS)
    src = rng.integers(0, n, CLAIM_PAIRS)
    key = rng.random(CLAIM_PAIRS) * 100.0
    workspace = kernels.ClaimWorkspace(n)
    workload = f"uniform-n{n}/{CLAIM_PAIRS}-pairs"

    for benchmark, sorted_run, scatter_run in (
        (
            "claim_first",
            lambda: sorted_claim_first(dst, src),
            lambda: kernels.claim_first(dst, src, workspace=workspace),
        ),
        (
            "claim_min",
            lambda: sorted_claim_min(dst, src, key),
            lambda: kernels.claim_min(dst, src, key, workspace=workspace),
        ),
    ):
        timings, results = interleaved_best(
            {"sorted": sorted_run, "scatter": scatter_run},
            repetitions=2 if QUICK else 3,
        )
        # Sort-free selection is a pure execution-strategy change: the winner
        # arrays (targets, parents, and keys) must be bit-identical.
        for reference, candidate in zip(results["sorted"], results["scatter"]):
            assert np.array_equal(reference, candidate)

        for mode, seconds in timings.items():
            kernel_bench_recorder(
                benchmark=benchmark, workload=workload, units=CLAIM_PAIRS,
                mode=mode, seconds=seconds,
            )
        speedup = timings["sorted"] / timings["scatter"]
        kernel_bench_recorder(
            benchmark=benchmark, workload=workload, units=CLAIM_PAIRS,
            mode="speedup", seconds=timings["scatter"],
            speedup=speedup, gate=CLAIMS_GATE,
        )
        assert speedup >= CLAIMS_GATE, (
            f"sort-free {benchmark} must be >= {CLAIMS_GATE}x over the sorted "
            f"reference on {CLAIM_PAIRS} pairs, got {speedup:.2f}x "
            f"(sorted {timings['sorted'] * 1000:.1f} ms, "
            f"scatter {timings['scatter'] * 1000:.1f} ms)"
        )


# ------------------------------------------------------------------ #
# Gate 2: pair-id hop rows >= 5x over one frontier_expansion per source
# ------------------------------------------------------------------ #
@pytest.fixture(scope="module")
def road_quotient():
    """The weighted quotient of a road grid's largest component at n // 20 clusters."""
    graph, _ = largest_component(road_network_graph(ROAD_SIDE, ROAD_SIDE, seed=1))
    pipe = DecompositionPipeline(graph, target_clusters=graph.num_nodes // 20, seed=1)
    return pipe.quotient(weighted=True)


def test_msbfs_gate(kernel_bench_recorder, road_quotient):
    quotient = road_quotient.unweighted()
    indptr, indices, degrees = quotient.indptr, quotient.indices, quotient.degrees
    k = quotient.num_nodes
    tile = kernels.row_tile(indices.size)
    workload = f"road{ROAD_SIDE}-quotient/hop/k{k}-arcs{indices.size}/tile{tile}"

    def loop_run():
        return np.stack(
            [
                kernels.frontier_expansion(indptr, indices, np.asarray([s], dtype=np.int64), degrees=degrees)[0]
                for s in range(k)
            ]
        )

    def rows_run():
        return np.concatenate(
            [
                kernels.msbfs_levels(indptr, indices, np.arange(lo, min(lo + tile, k)), degrees=degrees)
                for lo in range(0, k, tile)
            ]
        )

    timings, results = interleaved_best(
        {"loop": loop_run, "rows": rows_run}, repetitions=2 if QUICK else 3
    )
    assert np.array_equal(results["loop"], results["rows"])

    for mode, seconds in timings.items():
        kernel_bench_recorder(
            benchmark="msbfs_levels", workload=workload, units=k,
            mode=mode, seconds=seconds,
        )
    speedup = timings["loop"] / timings["rows"]
    kernel_bench_recorder(
        benchmark="msbfs_levels", workload=workload, units=k,
        mode="speedup", seconds=timings["rows"],
        speedup=speedup, gate=MSBFS_GATE,
    )
    assert speedup >= MSBFS_GATE, (
        f"msbfs_levels must be >= {MSBFS_GATE}x over one frontier_expansion "
        f"per source on a {k}-cluster road quotient, got {speedup:.2f}x "
        f"(loop {timings['loop'] * 1000:.0f} ms, rows {timings['rows'] * 1000:.0f} ms)"
    )


# ------------------------------------------------------------------ #
# Gate 3: direction-optimized BFS beats push-only on R-MAT
# ------------------------------------------------------------------ #
def test_direction_optimized_bfs_gate(kernel_bench_recorder):
    graph = rmat_graph(RMAT_SCALE, 16, seed=7)
    degrees = graph.degrees
    source = np.asarray([0], dtype=np.int64)
    workload = f"rmat{RMAT_SCALE}/single-source"

    def push_run():
        with forced_direction("push"):
            return kernels.frontier_expansion(graph.indptr, graph.indices, source, degrees=degrees)

    def auto_run():
        return kernels.frontier_expansion(graph.indptr, graph.indices, source, degrees=degrees)

    timings, results = interleaved_best(
        {"push": push_run, "auto": auto_run}, repetitions=3 if QUICK else 5
    )
    # Direction switching is a pure execution-strategy change: distances,
    # owners, and the level count must be bit-identical.
    push_dist, push_owner, push_levels = results["push"]
    auto_dist, auto_owner, auto_levels = results["auto"]
    assert np.array_equal(push_dist, auto_dist)
    assert np.array_equal(push_owner, auto_owner)
    assert push_levels == auto_levels

    for mode, seconds in timings.items():
        kernel_bench_recorder(
            benchmark="frontier_expansion", workload=workload,
            units=graph.num_nodes, mode=mode, seconds=seconds,
        )
    speedup = timings["push"] / timings["auto"]
    kernel_bench_recorder(
        benchmark="frontier_expansion", workload=workload,
        units=graph.num_nodes, mode="speedup", seconds=timings["auto"],
        speedup=speedup, gate=1.0,
    )
    assert speedup > 1.0, (
        f"direction-optimized BFS must beat push-only on rmat{RMAT_SCALE}, "
        f"got {speedup:.2f}x (push {timings['push'] * 1000:.1f} ms, "
        f"auto {timings['auto'] * 1000:.1f} ms)"
    )


# ------------------------------------------------------------------ #
# Gate 4: batched weighted rows >= 5x over one delta_stepping per source
# ------------------------------------------------------------------ #
def test_delta_stepping_rows_gate(kernel_bench_recorder, road_quotient):
    quotient = road_quotient
    indptr, indices, weights = quotient.indptr, quotient.indices, quotient.weights
    k = quotient.num_nodes
    tile = kernels.row_tile(indices.size)
    workload = f"road{ROAD_SIDE}-quotient/k{k}-arcs{indices.size}/tile{tile}"

    def loop_run():
        return np.stack(
            [
                kernels.delta_stepping(indptr, indices, weights, np.asarray([s], dtype=np.int64))[0]
                for s in range(k)
            ]
        )

    def rows_run():
        return np.concatenate(
            [
                kernels.delta_stepping_rows(indptr, indices, weights, np.arange(lo, min(lo + tile, k)))
                for lo in range(0, k, tile)
            ]
        )

    timings, results = interleaved_best(
        {"loop": loop_run, "rows": rows_run}, repetitions=2 if QUICK else 3
    )
    assert np.array_equal(results["loop"], results["rows"])

    for mode, seconds in timings.items():
        kernel_bench_recorder(
            benchmark="delta_stepping_rows", workload=workload, units=k,
            mode=mode, seconds=seconds,
        )
    speedup = timings["loop"] / timings["rows"]
    kernel_bench_recorder(
        benchmark="delta_stepping_rows", workload=workload, units=k,
        mode="speedup", seconds=timings["rows"],
        speedup=speedup, gate=ROWS_GATE,
    )
    assert speedup >= ROWS_GATE, (
        f"delta_stepping_rows must be >= {ROWS_GATE}x over one delta_stepping "
        f"per source on a {k}-cluster road quotient, got {speedup:.2f}x "
        f"(loop {timings['loop'] * 1000:.0f} ms, rows {timings['rows'] * 1000:.0f} ms)"
    )


# ------------------------------------------------------------------ #
# Gate 5: bounded quotient diameter >= 5x over the full row sweep
# ------------------------------------------------------------------ #
@pytest.fixture(scope="module")
def rmat_pipeline():
    """The rmat-social regime: the largest component of a seed-1 R-MAT sample
    (what its snapshot generator keeps), at DEFAULT_CONFIG's n // 50 clusters."""
    graph, _ = largest_component(rmat_graph(QUOTIENT_RMAT_SCALE, 16, seed=1))
    return DecompositionPipeline(graph, target_clusters=graph.num_nodes // 50, seed=1)


def test_bounded_quotient_diameter_gate(kernel_bench_recorder, rmat_pipeline):
    speedups = {}
    for flavour in ("weighted", "hop"):
        quotient = rmat_pipeline.quotient(weighted=flavour == "weighted")
        k, arcs = quotient.num_nodes, quotient.indices.size
        workload = f"rmat{QUOTIENT_RMAT_SCALE}-quotient/{flavour}/k{k}-arcs{arcs}"
        _, rows = bounded_diameter(
            quotient.indptr, quotient.indices, quotient.weights, degrees=quotient.degrees
        )
        timings, results = interleaved_best(
            {"full-sweep": lambda: float(quotient_apsp(quotient).max()), "bounded": lambda: quotient_diameter(quotient)},
            repetitions=2 if QUICK else 3,
        )
        assert results["full-sweep"] == results["bounded"]
        kernel_bench_recorder(
            benchmark="quotient_diameter", workload=workload, units=k,
            mode="full-sweep", seconds=timings["full-sweep"], rows=k,
        )
        kernel_bench_recorder(
            benchmark="quotient_diameter", workload=workload, units=k,
            mode="bounded", seconds=timings["bounded"], rows=rows,
        )
        speedups[flavour] = timings["full-sweep"] / timings["bounded"]
        kernel_bench_recorder(
            benchmark="quotient_diameter", workload=workload, units=k,
            mode="speedup", seconds=timings["bounded"], speedup=speedups[flavour],
            gate=DIAMETER_GATE if flavour == "weighted" else None,
        )
    assert speedups["weighted"] >= DIAMETER_GATE, (
        f"the bounded weighted quotient diameter must be >= {DIAMETER_GATE}x over the full "
        f"sweep on rmat{QUOTIENT_RMAT_SCALE}, got {speedups['weighted']:.2f}x"
    )


# ------------------------------------------------------------------ #
# Gate 6: packed quotient build >= 3x over the frozen builder
# ------------------------------------------------------------------ #
def test_quotient_build_gate(kernel_bench_recorder, rmat_pipeline):
    graph, clustering = rmat_pipeline.graph, rmat_pipeline.decompose()
    arcs = graph.indices.size
    workload = f"rmat{QUOTIENT_RMAT_SCALE}-quotient-build/k{clustering.num_clusters}-arcs{arcs}"
    timings, results = interleaved_best(
        {
            "reference": lambda: reference_quotient(graph, clustering, weighted=True),
            "packed": lambda: build_quotient_graph(graph, clustering, weighted=True),
        },
        repetitions=3 if QUICK else 5,
    )
    for field in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(results["packed"], field), getattr(results["reference"], field))
    speedup = timings["reference"] / timings["packed"]
    for mode in ("reference", "packed"):
        kernel_bench_recorder(benchmark="quotient_build", workload=workload, units=arcs, mode=mode, seconds=timings[mode])
    kernel_bench_recorder(
        benchmark="quotient_build", workload=workload, units=arcs,
        mode="speedup", seconds=timings["packed"], speedup=speedup, gate=BUILD_GATE,
    )
    assert speedup >= BUILD_GATE, (
        f"the packed quotient build must be >= {BUILD_GATE}x over reference_quotient "
        f"on rmat{QUOTIENT_RMAT_SCALE}, got {speedup:.2f}x"
    )
