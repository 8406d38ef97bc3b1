"""Precompute-once, batched distance-oracle serving plane (ROADMAP item 1).

The long-lived service pattern: :class:`GraphService` loads (or decomposes) a
graph **once** — CLUSTER2 / weighted clustering, quotient APSP matrices, and
the per-node assignment / center-distance arrays — and then answers *batched*
distance, same-cluster, eccentricity, and k-center queries as pure vectorized
lookups, thousands of queries per call with zero per-query Python.

The precomputed state has a versioned, content-hashed snapshot format
(:mod:`repro.serving.snapshot`) persisted through the
:class:`~repro.experiments.store.ArtifactStore` npz layer, so a service can
cold-start from disk without re-running the decomposition;
:mod:`repro.serving.workload` provides synthetic mixed workloads, a
query-log file format, and a latency-percentile replay harness backing the
``python -m repro.experiments serve`` CLI and the ``bench_oracle.py`` gates.
"""

from repro.serving.service import QUERY_KINDS, SERVICE_METHODS, GraphService
from repro.serving.snapshot import (
    SNAPSHOT_SCHEMA,
    load_snapshot,
    save_snapshot,
    snapshot_key,
    snapshot_path,
)
from repro.serving.workload import (
    DEFAULT_MIX,
    QueryLog,
    ReplayReport,
    load_query_log,
    replay,
    save_query_log,
    synthetic_workload,
)

__all__ = [
    "GraphService",
    "SERVICE_METHODS",
    "SNAPSHOT_SCHEMA",
    "snapshot_key",
    "snapshot_path",
    "save_snapshot",
    "load_snapshot",
    "QUERY_KINDS",
    "DEFAULT_MIX",
    "QueryLog",
    "ReplayReport",
    "synthetic_workload",
    "save_query_log",
    "load_query_log",
    "replay",
]
