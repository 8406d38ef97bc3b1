"""Shared configuration for the benchmark harness.

Every benchmark regenerates one artifact of the paper's evaluation section
(Tables 1-4, Figure 1) or an ablation, using the experiment drivers in
:mod:`repro.experiments`.  Run them with::

    pytest benchmarks/ --benchmark-only                 # quick (small scale)
    REPRO_BENCH_SCALE=default pytest benchmarks/ --benchmark-only   # full stand-ins

The rendered tables are printed to stdout (add ``-s`` to see them live) and
the key qualitative claims of the paper are asserted, so the benchmarks double
as end-to-end regression checks.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# ------------------------------------------------------------------ #
# Machine-readable MR-performance trajectory (BENCH_mr.json)
# ------------------------------------------------------------------ #
# The MR benchmarks (bench_structured.py) record one row per measured
# (workload, backend) pair; at session end the rows are written to
# BENCH_mr.json (override the path with REPRO_BENCH_MR_JSON) so the perf
# trajectory stays comparable across PRs.  CI uploads the file as an
# artifact next to the pytest-benchmark timings.
_MR_BENCH_RESULTS: list = []


@pytest.fixture(scope="session")
def mr_bench_recorder():
    """Record one MR benchmark measurement for BENCH_mr.json."""

    def record(*, benchmark: str, workload: str, pairs: int, backend: str,
               seconds: float, **extra) -> None:
        row = {
            "benchmark": benchmark,
            "workload": workload,
            "pairs": int(pairs),
            "backend": backend,
            "seconds": float(seconds),
            "ns_per_pair": float(seconds) / max(1, int(pairs)) * 1e9,
        }
        row.update(extra)
        _MR_BENCH_RESULTS.append(row)

    return record


# ------------------------------------------------------------------ #
# Machine-readable serving-plane trajectory (BENCH_oracle.json)
# ------------------------------------------------------------------ #
# bench_oracle.py records one row per measured (workload, mode) pair —
# queries/sec for the batched and scalar query paths plus the
# batched-vs-scalar speedup the CI gate asserts — written to
# BENCH_oracle.json at session end (override with REPRO_BENCH_ORACLE_JSON).
_ORACLE_BENCH_RESULTS: list = []


@pytest.fixture(scope="session")
def oracle_bench_recorder():
    """Record one serving-plane benchmark measurement for BENCH_oracle.json."""

    def record(*, benchmark: str, workload: str, queries: int, mode: str,
               seconds: float, **extra) -> None:
        row = {
            "benchmark": benchmark,
            "workload": workload,
            "queries": int(queries),
            "mode": mode,
            "seconds": float(seconds),
            "queries_per_s": int(queries) / float(seconds) if seconds > 0 else float("inf"),
        }
        row.update(extra)
        _ORACLE_BENCH_RESULTS.append(row)

    return record


# ------------------------------------------------------------------ #
# Machine-readable frontier-kernel trajectory (BENCH_kernels.json)
# ------------------------------------------------------------------ #
# bench_kernels.py records one row per measured (workload, mode) pair —
# sort-free vs sorted claims, bit-parallel msbfs vs the looped single-source
# path, direction-optimized vs push-only BFS — written to BENCH_kernels.json
# at session end (override with REPRO_BENCH_KERNELS_JSON).  When the session
# ran with REPRO_KERNEL_STATS=1 the aggregate kernel counters are embedded
# alongside the rows so the direction-switch heuristics are observable in
# the CI artifact.
_KERNEL_BENCH_RESULTS: list = []


@pytest.fixture(scope="session")
def kernel_bench_recorder():
    """Record one frontier-kernel benchmark measurement for BENCH_kernels.json."""

    def record(*, benchmark: str, workload: str, units: int, mode: str,
               seconds: float, **extra) -> None:
        row = {
            "benchmark": benchmark,
            "workload": workload,
            "units": int(units),
            "mode": mode,
            "seconds": float(seconds),
        }
        row.update(extra)
        _KERNEL_BENCH_RESULTS.append(row)

    return record


def pytest_sessionfinish(session, exitstatus):
    quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    if _MR_BENCH_RESULTS:
        path = Path(os.environ.get("REPRO_BENCH_MR_JSON", "BENCH_mr.json"))
        path.write_text(
            json.dumps({"quick_mode": quick, "results": _MR_BENCH_RESULTS}, indent=2) + "\n"
        )
    if _ORACLE_BENCH_RESULTS:
        path = Path(os.environ.get("REPRO_BENCH_ORACLE_JSON", "BENCH_oracle.json"))
        path.write_text(
            json.dumps({"quick_mode": quick, "results": _ORACLE_BENCH_RESULTS}, indent=2) + "\n"
        )
    if _KERNEL_BENCH_RESULTS:
        from repro.graph import kernels

        payload = {"quick_mode": quick, "results": _KERNEL_BENCH_RESULTS}
        if kernels.kernel_stats_enabled():
            payload["kernel_stats"] = kernels.kernel_stats_snapshot()
        path = Path(os.environ.get("REPRO_BENCH_KERNELS_JSON", "BENCH_kernels.json"))
        path.write_text(json.dumps(payload, indent=2) + "\n")


def bench_scale() -> str:
    """Dataset scale for the benchmark run (``small`` unless overridden)."""
    return os.environ.get("REPRO_BENCH_SCALE", "small")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def show_table():
    """Render and print an experiment table (visible with ``pytest -s``)."""
    from repro.analysis.tables import render_table

    def _show(rows, title):
        sys.stdout.write("\n" + render_table(rows, title=title) + "\n")
        return rows

    return _show
