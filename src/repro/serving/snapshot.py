"""Versioned, content-hashed snapshots of the precomputed serving state.

A snapshot is one compressed ``.npz`` file holding everything a
:class:`~repro.serving.GraphService` needs to serve queries — the CSR graph
arrays, the decomposition (assignment / centers / center distances), and the
two quotient APSP matrices — plus a JSON ``meta`` record (schema version,
build parameters, content key).  Loading a snapshot therefore cold-starts a
service **without re-running the decomposition or the APSP**.

Snapshots live in the ``snapshots/`` directory of an
:class:`~repro.experiments.store.ArtifactStore` (the same npz layer the
dataset cache uses: one file per content key, written via a per-process temp
file + rename so concurrent writers race benignly).  The content key is a
SHA-256 over the graph arrays and the build parameters ``(tau, seed,
method)``, so any change to either forces a rebuild and stale snapshots are
never served.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

import numpy as np

from repro import faults
from repro.experiments.store import ArtifactStore
from repro.graph.csr import CSRGraph

__all__ = [
    "SNAPSHOT_SCHEMA",
    "snapshot_key",
    "snapshot_path",
    "save_snapshot",
    "load_snapshot",
]

SNAPSHOT_SCHEMA = 1

StoreLike = Union[ArtifactStore, str, os.PathLike]


def _canonical_seed(seed) -> str:
    """Seed token entering the content hash (must be stable across runs)."""
    if seed is None or isinstance(seed, (int, np.integer)):
        return str(seed)
    raise TypeError(
        "snapshotting requires an int or None seed so the content key is "
        f"stable across processes, got {type(seed).__name__}"
    )


def snapshot_key(graph: CSRGraph, *, tau: int, seed, method: str) -> str:
    """Content hash identifying one precomputed serving state.

    Covers the schema version, the build parameters, and the raw CSR arrays
    (including weights), so the key changes exactly when the served answers
    could.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(
        f"oracle-snapshot/v{SNAPSHOT_SCHEMA}/{method}/tau={int(tau)}/"
        f"seed={_canonical_seed(seed)}/n={graph.num_nodes}/m={graph.num_edges}/"
        f"weighted={graph.is_weighted}".encode()
    )
    digest.update(np.ascontiguousarray(graph.indptr).tobytes())
    digest.update(np.ascontiguousarray(graph.indices).tobytes())
    if graph.weights is not None:
        digest.update(np.ascontiguousarray(graph.weights).tobytes())
    return digest.hexdigest()[:20]


def _snapshots_dir(store: StoreLike) -> Path:
    if isinstance(store, ArtifactStore):
        return store.snapshots_dir
    return Path(store)


def snapshot_path(store: StoreLike, key: str) -> Path:
    """Where the snapshot for ``key`` lives under ``store``."""
    return _snapshots_dir(store) / f"{key}.npz"


def save_snapshot(service, store: StoreLike) -> Path:
    """Persist ``service``'s precomputed state; returns the written path.

    Written atomically (per-process temp file + rename, the
    :class:`~repro.experiments.store.DatasetCache` pattern), so concurrent
    builders of the same key overwrite each other with identical bytes-level
    content at worst.
    """
    clustering = service.oracle.clustering
    meta = {
        "schema": SNAPSHOT_SCHEMA,
        "key": service.snapshot_key,
        "method": service.method,
        "tau": int(service.tau),
        "seed": None if service.seed is None else int(service.seed),
        "weighted": bool(service.is_weighted),
        "algorithm": clustering.algorithm,
        "same_cluster_lower": float(service.oracle.same_cluster_lower),
    }
    arrays = {
        "indptr": service.graph.indptr,
        "indices": service.graph.indices,
        "assignment": clustering.assignment,
        "centers": clustering.centers,
        "hop_distance": np.asarray(clustering.distance, dtype=np.int64),
        "upper_matrix": service.oracle.upper_matrix,
        "lower_matrix": service.oracle.lower_matrix,
        "meta": np.asarray(json.dumps(meta)),
    }
    if service.graph.weights is not None:
        arrays["graph_weights"] = service.graph.weights
    if service.is_weighted:
        arrays["weighted_distance"] = clustering.weighted_distance
    path = snapshot_path(store, meta["key"])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.npz")
    np.savez_compressed(tmp, **arrays)
    os.replace(tmp, path)
    faults.corrupt_file("serving.snapshot", path)
    return path


def load_snapshot(path: Union[str, os.PathLike]):
    """Reconstruct a ready-to-serve :class:`~repro.serving.GraphService`.

    Pure array loads — no decomposition, no shortest paths.  The rebuilt
    clustering carries the serving state only (the growth execution trace is
    not persisted; MR accounting needs a fresh decomposition run).

    Raises ``ValueError`` for missing files, schema mismatches, or corrupt
    payloads.
    """
    from repro.core.clustering import Clustering
    from repro.core.oracle import DistanceOracle
    from repro.serving.service import GraphService

    path = Path(path)
    try:
        with np.load(path) as data:
            files = set(data.files)
            required = {
                "indptr", "indices", "assignment", "centers",
                "hop_distance", "upper_matrix", "lower_matrix", "meta",
            }
            missing = required - files
            if missing:
                raise ValueError(f"snapshot {path} is missing arrays: {sorted(missing)}")
            meta = json.loads(str(data["meta"]))
            arrays = {name: data[name] for name in files - {"meta"}}
    except ValueError:
        raise
    except Exception as exc:
        # A torn or bit-flipped .npz surfaces as anything from OSError to
        # BadZipFile to JSONDecodeError; normalize them all to ValueError so
        # callers have one "snapshot is unusable" signal to degrade on.
        raise ValueError(f"cannot read snapshot {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"snapshot {path} has a meta record that is not a JSON object: a {type(meta).__name__}")
    if meta.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"snapshot {path} has schema {meta.get('schema')!r}, "
            f"this build reads schema {SNAPSHOT_SCHEMA}"
        )
    try:
        tau = int(meta["tau"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"snapshot {path} has no integer tau in its meta record") from exc

    graph = CSRGraph(
        indptr=arrays["indptr"], indices=arrays["indices"], weights=arrays.get("graph_weights")
    )
    clustering = Clustering(
        num_nodes=graph.num_nodes,
        assignment=arrays["assignment"],
        centers=arrays["centers"],
        distance=arrays["hop_distance"],
        algorithm=meta.get("algorithm", "cluster2"),
        weighted_distance=arrays["weighted_distance"] if meta.get("weighted") else None,
    )

    oracle = DistanceOracle(
        clustering=clustering,
        upper_matrix=arrays["upper_matrix"],
        lower_matrix=arrays["lower_matrix"],
        same_cluster_lower=float(meta.get("same_cluster_lower", 1.0)),
    )
    return GraphService(
        graph,
        oracle,
        method=meta.get("method", "cluster2"),
        tau=tau,
        seed=meta.get("seed"),
        snapshot_key=meta.get("key"),
    )
