"""The benchmark's declared metrics and what each per-layer metric explains.

``BENCHMARK.json`` at the repository root is the single declaration of the
workloads and metrics (name, unit, direction, and for end-to-end metrics the
regression bound).  Its schema is fixed, so the mapping of every per-layer
metric to the module it measures and the end-to-end metric it should move
lives here, in :data:`LAYER_MAP`.  This module imports nothing heavy: the
command line loads it before it knows whether the source tree is present.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

PIPELINES = ("rmat-social", "road-long")
ALL = ("rmat-social", "road-long", "serve-road", "suite-small")

#: per-layer metric -> (module it measures, end-to-end metric it should
#: move, workloads on which it should move it).  Elsewhere the prediction is
#: no change.  ``None`` marks a metric that moves no end-to-end metric: a
#: quality measure, or one about the trace itself.
LAYER_MAP: Dict[str, Tuple[str, Optional[str], Tuple[str, ...]]] = {
    "ingest.snapshot_s": ("graph.ingest", "setup_s", ("rmat-social",)),
    "ingest.snapshot_bytes": ("graph.ingest", "setup_s", ("rmat-social",)),
    "decompose.s": ("core.growth", "run_s", PIPELINES),
    "decompose.clusters": ("core.growth", "run_s", PIPELINES),
    "decompose.radius": ("core.growth", "run_s", PIPELINES),
    "quotient.build_unweighted_s": ("core.quotient", "run_s", ("rmat-social", "serve-road")),
    "quotient.build_weighted_s": ("core.quotient", "run_s", ("rmat-social", "serve-road")),
    "quotient.diameter_unweighted_s": ("core.quotient", "run_s", PIPELINES),
    "quotient.diameter_weighted_s": ("core.quotient", "run_s", PIPELINES),
    "quotient.nodes": ("core.quotient", "run_s", ALL[:3]),
    "quotient.edges": ("core.quotient", "run_s", ALL[:3]),
    "quotient.apsp_calls": ("core.quotient", "run_s", ("rmat-social", "serve-road")),
    "quotient.apsp_matrix_bytes": ("core.quotient", "peak_rss_mb", ("rmat-social", "serve-road")),
    "kernels.delta_stepping.calls": ("graph.kernels", "run_s", ALL[:3]),
    "kernels.delta_stepping.s": ("graph.kernels", "run_s", ALL[:3]),
    "kernels.msbfs.calls": ("graph.kernels", "run_s", ALL[:3]),
    "kernels.msbfs.s": ("graph.kernels", "run_s", ALL[:3]),
    "kernels.msbfs_sweeps": ("graph.kernels", "run_s", ALL[:3]),
    "kernels.msbfs_edges_scanned": ("graph.kernels", "run_s", ALL[:3]),
    "kernels.push_levels": ("graph.kernels", "run_s", ALL[:3]),
    "kernels.pull_levels": ("graph.kernels", "run_s", ALL[:3]),
    "kernels.edges_scanned": ("graph.kernels", "run_s", ALL[:3]),
    "mr.accounting_s": ("core.mr_algorithms", "run_s", PIPELINES),
    "mr.rounds": ("mapreduce", "run_s", PIPELINES),
    "mr.shuffled_pairs": ("mapreduce", "run_s", PIPELINES),
    "oracle.decompose_s": ("core.oracle", "run_s", ("serve-road",)),
    "oracle.build_s": ("core.oracle", "run_s", ("serve-road",)),
    "oracle.apsp_s": ("core.oracle", "run_s", ("serve-road",)),
    "oracle.clusters": ("core.oracle", "peak_rss_mb", ("serve-road",)),
    "oracle.space_entries": ("core.oracle", "peak_rss_mb", ("serve-road",)),
    "serving.distance_ns_per_query": ("serving", "ops_per_s", ("serve-road",)),
    "serving.same_cluster_ns_per_query": ("serving", "ops_per_s", ("serve-road",)),
    "serving.eccentricity_ns_per_query": ("serving", "ops_per_s", ("serve-road",)),
    "serving.centers_ns_per_query": ("serving", "ops_per_s", ("serve-road",)),
    "serving.dispatch_overhead_s": ("serving", "ops_per_s", ("serve-road",)),
    "serving.batch_p50_ms": ("serving", "ops_per_s", ("serve-road",)),
    "serving.batch_p99_ms": ("serving", "ops_per_s", ("serve-road",)),
    "serving.batches": ("serving", "ops_per_s", ("serve-road",)),
    "suite.cell_busy_s": ("experiments.suite", "run_s", ("suite-small",)),
    "suite.pool_efficiency": ("experiments.suite", "run_s", ("suite-small",)),
    "suite.longest_cell_s": ("experiments.suite", "run_s", ("suite-small",)),
    "suite.cells_failed": ("experiments.suite", "run_s", ("suite-small",)),
    "suite.attempts": ("experiments.suite", "run_s", ("suite-small",)),
    **{
        f"suite.exp.{name}_s": ("experiments.suite", "run_s", ("suite-small",))
        for name in ("table1", "table2", "table3", "table4", "figure1", "pipeline", "ablations")
    },
    "pipeline.bound_ratio": ("core.pipeline", None, PIPELINES),
    "trace.coverage": ("benchmark", None, ALL),
    "trace.overhead_pct": ("benchmark", None, ALL),
    "machine.speed": ("benchmark", None, ALL),
}


class SpecError(ValueError):
    """``BENCHMARK.json`` is missing or breaks the benchmark's schema."""


def load(path: Path = BENCHMARK_JSON) -> dict:
    """Read and validate ``BENCHMARK.json``; raises :class:`SpecError`."""
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read {path.name}: {exc}") from None
    problems = validate(spec)
    if problems:
        raise SpecError(f"{path.name}: " + "; ".join(problems))
    return spec


def validate(spec: dict) -> List[str]:
    """Every way ``spec`` breaks the schema (empty when it is valid)."""
    problems: List[str] = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != expected:
        return [f"top-level keys must be {sorted(expected)}, got {sorted(spec)}"]
    workloads = [w.get("name") for w in spec["workloads"]]
    if not 2 <= len(workloads) <= 8 or tuple(workloads) != ALL:
        problems.append(f"workloads must be {list(ALL)}, got {workloads}")
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"} or "\n" in workload["why"] or len(workload["why"]) > 200:
            problems.append(f"workload {workload.get('name')!r} needs exactly a name and a one-line why")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("1 to 16 end_to_end metrics allowed")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("1 to 128 per_layer metrics allowed")
    names = [m.get("name") for m in spec["end_to_end"] + spec["per_layer"]] + workloads
    if len(names) != len(set(names)):
        problems.append("metric and workload names must be unique")
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}), ("per_layer", {"name", "unit", "better"})):
        for metric in spec[group]:
            name = metric.get("name", "")
            if set(metric) != keys:
                problems.append(f"{group} metric {name!r} must have exactly {sorted(keys)}")
                continue
            if not NAME_RE.match(name):
                problems.append(f"bad metric name {name!r}")
            if not UNIT_RE.match(metric["unit"]):
                problems.append(f"bad unit {metric['unit']!r} for {name}")
            if metric["better"] not in ("lower", "higher"):
                problems.append(f"{name}: better must be 'lower' or 'higher'")
            if group == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                problems.append(f"{name}: bound must be in (0, 0.25]")
            if group == "per_layer" and name not in LAYER_MAP:
                problems.append(f"{name}: no entry in spec.LAYER_MAP")
    e2e = {m["name"] for m in spec["end_to_end"]}
    if "setup_s" not in e2e:
        problems.append("end_to_end must include setup_s")
    layer_names = {m["name"] for m in spec["per_layer"]}
    for name, (_, moves, on) in LAYER_MAP.items():
        if name not in layer_names:
            problems.append(f"LAYER_MAP entry {name!r} is not declared in per_layer")
        if (moves is not None and moves not in e2e) or not set(on) <= set(ALL):
            problems.append(f"LAYER_MAP entry {name!r} maps to an undeclared metric or workload")
    return problems


def units(spec: dict, group: str) -> Dict[str, str]:
    """``{metric name: unit}`` of one metric group."""
    return {metric["name"]: metric["unit"] for metric in spec[group]}
