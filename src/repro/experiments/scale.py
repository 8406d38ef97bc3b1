"""The ``scale`` experiment tier: out-of-core pipeline runs at massive n.

The paper's headline claim is *space-and-time-efficient* processing of
massive graphs; the classic tables reproduce the quality numbers on
laptop-scale stand-ins.  This tier proves the claim at scale: each cell
synthesizes an R-MAT graph straight into an on-disk snapshot
(:func:`repro.generators.streaming.rmat_to_snapshot` — the edge list never
exists in memory), opens it as read-only mmap views, runs the full
decomposition → quotient → diameter-bounds pipeline on the mapped arrays,
and records wall-clock per stage **and the process's peak RSS** next to the
quality numbers.  Rows land in the artifact store like any other cell, so
``report`` renders a time/memory-vs-n table from stored artifacts.

Tiers map onto the suite's ``--scale`` axis:

========  ==================  ========================================
scale     graphs              intent
========  ==================  ========================================
small     rmat-small          test-suite smoke (seconds)
default   rmat-16m            CI quick mode (a ≥10M-edge cell, ~minutes)
xl        rmat-16m, rmat-134m the ~10⁸-edge frontier (manual / nightly)
========  ==================  ========================================

Generated snapshots are cached in the dataset cache's directory (when one is
attached) keyed by spec name + seed, so re-runs and ``report`` iterations
skip the build; with a memory-only cache the snapshot lives in a temporary
directory for the duration of the cell.
"""

from __future__ import annotations

import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.datasets import dataset_cache
from repro.graph.snapshot import is_snapshot, load_snapshot
from repro.utils.rng import as_rng

__all__ = [
    "ScaleGraphSpec",
    "SCALE_GRAPHS",
    "scale_graph_names",
    "scale_row",
    "peak_rss_bytes",
    "SEED_OFFSET",
]

SEED_OFFSET = 31


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; it is monotonic
    over the process lifetime, so per-cell values are upper bounds shared by
    everything that ran earlier in the same process (exact when the cell is
    the process's largest workload, which scale cells are by construction).
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return int(peak)


@dataclass(frozen=True)
class ScaleGraphSpec:
    """One R-MAT scale point.

    ``tiers`` names the suite scales (``small`` / ``default`` / ``xl``) whose
    runs include this graph.  ``chunk_edges`` is part of the sampling
    contract of the streaming generator (see
    :mod:`repro.generators.streaming`), so it is pinned per spec.
    """

    name: str
    scale: int
    edge_factor: int
    seed: int
    chunk_edges: int
    tiers: Tuple[str, ...]

    @property
    def num_samples(self) -> int:
        return (1 << self.scale) * self.edge_factor


SCALE_GRAPHS: Dict[str, ScaleGraphSpec] = {
    spec.name: spec
    for spec in (
        # ~16k directed samples: seconds, safe for the test suite.
        ScaleGraphSpec("rmat-small", 11, 8, seed=7001, chunk_edges=1 << 13, tiers=("small",)),
        # 2^20 x 16 = 16.7M directed samples -> ~15.7M unique undirected
        # edges: the >=10M-edge CI quick cell.
        ScaleGraphSpec(
            "rmat-16m", 20, 16, seed=7002, chunk_edges=1 << 21, tiers=("default", "xl")
        ),
        # 2^23 x 16 = 134M directed samples -> ~1e8 unique undirected edges:
        # the paper-scale frontier (manual / nightly only).
        ScaleGraphSpec("rmat-134m", 23, 16, seed=7003, chunk_edges=1 << 22, tiers=("xl",)),
    )
}


def scale_graph_names(tier: str) -> List[str]:
    """The scale-point names running at suite scale ``tier`` (registry order)."""
    return [name for name, spec in SCALE_GRAPHS.items() if tier in spec.tiers]


def _snapshot_location(spec: ScaleGraphSpec) -> Tuple[Path, Optional[Path]]:
    """Where the spec's snapshot lives: ``(path, tmp_root_to_cleanup)``.

    With a disk-backed dataset cache the snapshot is cached next to the
    benchmark graphs (content = pure function of the spec, so reuse is
    sound); otherwise it lives in a fresh temp dir owned by the caller.
    """
    cache = dataset_cache()
    if cache.directory is not None:
        cache.directory.mkdir(parents=True, exist_ok=True)
        return cache.directory / f"scale-{spec.name}-s{spec.seed}.snap", None
    root = Path(tempfile.mkdtemp(prefix=f"repro-scale-{spec.name}-"))
    return root / f"{spec.name}.snap", root


def scale_row(
    graph_name: str,
    *,
    scale: str = "default",
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> Dict:
    """One out-of-core pipeline run on one R-MAT scale point.

    Builds (or reuses) the snapshot, opens it mmap-backed, runs the
    decomposition pipeline, and returns quality numbers plus ``t_*``
    wall-clock columns and ``peak_rss_bytes``.  All non-measured columns are
    a pure function of the spec and config.
    """
    if graph_name not in SCALE_GRAPHS:
        raise KeyError(
            f"unknown scale graph {graph_name!r}; available: {sorted(SCALE_GRAPHS)}"
        )
    spec = SCALE_GRAPHS[graph_name]
    from repro.generators.streaming import rmat_to_snapshot

    path, tmp_root = _snapshot_location(spec)
    try:
        start = time.perf_counter()
        reused = path.exists() and is_snapshot(path)
        if reused:
            graph = load_snapshot(path, mmap=True)
        else:
            graph, _ = rmat_to_snapshot(
                path,
                spec.scale,
                spec.edge_factor,
                seed=spec.seed,
                chunk_edges=spec.chunk_edges,
                connected_only=True,
                mmap=True,
            )
        t_build = time.perf_counter() - start

        target = max(4, graph.num_nodes // config.social_divisor)
        rng = as_rng(config.seed + SEED_OFFSET + spec.seed)
        pipeline = config.pipeline(graph, target_clusters=target, seed=rng)
        start = time.perf_counter()
        result = pipeline.run()
        t_pipeline = time.perf_counter() - start
        row = {
            "graph": graph_name,
            "rmat_scale": spec.scale,
            "edge_factor": spec.edge_factor,
            "num_samples": spec.num_samples,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "mode": graph.mode,
            **result.summary(),
            "t_build_s": round(t_build, 3),
            "t_pipeline_s": round(t_pipeline, 3),
            "peak_rss_bytes": peak_rss_bytes(),
            "reused_snapshot": bool(reused),
        }
        return row
    finally:
        if tmp_root is not None:
            shutil.rmtree(tmp_root, ignore_errors=True)
