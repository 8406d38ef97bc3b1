"""Disk-backed persistence for the experiment suite.

Two cooperating pieces live here:

* :class:`ArtifactStore` — the on-disk layout behind a suite run.  One root
  directory holds machine-readable JSON artifacts::

      <root>/
        manifest.json                  # latest run: config, cells, timings
        cells/<experiment>/<key>.json    # one artifact per executed cell
        datasets/<name>@<scale>.snap     # cached benchmark graphs (mmap-able snapshots)
        datasets/<key>.diameter.json     # cached reference diameters (one per key)
        snapshots/<key>.npz              # serving-plane oracle snapshots

  Cell artifacts are keyed by the cell's *content hash* (spec + config +
  seed), so ``--resume`` is a pure lookup: a cell whose key is already in the
  store is served from disk and never recomputed, while any edit to the cell
  spec or the experiment config changes the key and forces a recompute.

* :class:`DatasetCache` — the two-level cache behind
  :func:`repro.experiments.datasets.load_dataset`: the built graphs in
  memory in front of an optional disk layer (graphs in the mmap-able
  snapshot format of :mod:`repro.graph.snapshot`, reference diameters as one
  small ``*.diameter.json`` file per key — per-key files make concurrent
  worker writes idempotent instead of a read-modify-write race on a shared
  dictionary).  Pointing the cache at a store's ``datasets/`` directory lets
  the suite's worker processes share one build of every benchmark graph
  across runs, and its *pages* through the mapped snapshots.

Everything written is plain JSON / NumPy ``.npz``; :func:`to_jsonable`
normalizes NumPy scalars and arrays so rows loaded from the store compare
equal (``==``) to freshly computed ones.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.utils.logging import get_logger

PathLike = Union[str, os.PathLike]

_LOG = get_logger("experiments.store")

STORE_SCHEMA = 1

#: Double sweeps behind a reference diameter (part of its cache key).
REFERENCE_SWEEPS = 4

__all__ = ["ArtifactStore", "DatasetCache", "to_jsonable", "STORE_SCHEMA"]


def to_jsonable(value):
    """Recursively normalize ``value`` into JSON-representable Python objects.

    NumPy scalars become Python scalars, arrays and tuples become lists, and
    dict keys are stringified.  Applying this to every computed row before it
    is returned or persisted is what makes cached artifacts bit-comparable to
    fresh results.
    """
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _write_json_atomic(path: Path, payload) -> None:
    """Write JSON via a temp file + rename (safe under concurrent workers).

    The temp name carries both the pid and a random suffix: pid alone is not
    unique across hosts sharing one artifact directory (NFS), so two writers
    could clobber each other's in-flight temp file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    tmp.write_text(json.dumps(payload, indent=1) + "\n")
    os.replace(tmp, path)


class ArtifactStore:
    """Per-cell JSON artifacts plus the run manifest, under one root directory.

    The store is lazy: nothing is created on construction, directories appear
    on first write, and reads of absent/corrupt artifacts return ``None`` so
    a damaged cache entry degrades to a recompute instead of an error.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    @property
    def cells_dir(self) -> Path:
        return self.root / "cells"

    @property
    def datasets_dir(self) -> Path:
        return self.root / "datasets"

    @property
    def snapshots_dir(self) -> Path:
        """Content-keyed ``GraphService`` snapshots (``repro.serving.snapshot``)."""
        return self.root / "snapshots"

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def cell_path(self, experiment: str, key: str) -> Path:
        return self.cells_dir / experiment / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Cell artifacts
    # ------------------------------------------------------------------ #
    def load_cell(self, experiment: str, key: str) -> Optional[Dict]:
        """The stored artifact for ``key``, or ``None`` when absent/corrupt."""
        path = self.cell_path(experiment, key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("schema") != STORE_SCHEMA:
            return None
        if payload.get("key") != key or not isinstance(payload.get("rows"), list):
            return None
        return payload

    def save_cell(self, experiment: str, key: str, payload: Dict) -> Path:
        """Persist one cell artifact; returns the written path."""
        record = dict(payload)
        record["schema"] = STORE_SCHEMA
        record["key"] = key
        path = self.cell_path(experiment, key)
        _write_json_atomic(path, to_jsonable(record))
        return path

    # ------------------------------------------------------------------ #
    # Manifest
    # ------------------------------------------------------------------ #
    def write_manifest(self, manifest: Dict) -> Path:
        _write_json_atomic(self.manifest_path, to_jsonable(manifest))
        return self.manifest_path

    def read_manifest(self) -> Dict:
        """The latest run manifest; raises ``FileNotFoundError`` when absent."""
        return json.loads(self.manifest_path.read_text())


class DatasetCache:
    """Two-level cache for built benchmark graphs and reference diameters.

    An in-memory layer (repeated loads of a resident graph return the *same
    object*, which several callers rely on; nothing is evicted, since the
    registry has only a dozen ``(dataset, scale)`` keys) sits in front of an
    optional disk layer: graphs in the raw snapshot format of
    :mod:`repro.graph.snapshot` (``*.snap``) and reference diameters as one
    ``*.diameter.json`` file per key.  Disk hits open the snapshot as
    read-only ``np.memmap`` views, so every process mapping the same cache
    file shares one physical copy through the OS page cache — this is how
    ``SuiteRunner --jobs`` workers share disk-resident datasets without
    reshipping arrays.  With no ``directory`` configured the cache is
    memory-only, which is the test-suite default;
    the suite runner points it at the artifact store so builds persist
    across runs and are shared by worker processes (each key is its own
    file, written atomically via a collision-safe temp name + rename, and
    all values are seed-deterministic, so concurrent workers race benignly).
    A directory passed at construction (the ``REPRO_DATASET_CACHE`` env var
    or :func:`~repro.experiments.datasets.configure_dataset_cache`) is
    *pinned*: the suite runner will not repoint it at a store.
    """

    def __init__(self, directory: Optional[PathLike] = None) -> None:
        self._directory: Optional[Path] = Path(directory) if directory is not None else None
        self.pinned = directory is not None
        self._graphs: Dict[tuple, object] = {}
        self._diameters: Dict[str, int] = {}

    @property
    def directory(self) -> Optional[Path]:
        return self._directory

    def set_directory(self, directory: Optional[PathLike]) -> None:
        """(Re)point the disk layer; the in-memory layer is kept."""
        self._directory = Path(directory) if directory is not None else None

    # ------------------------------------------------------------------ #
    def _graph_path(self, name: str, scale: str) -> Path:
        assert self._directory is not None
        return self._directory / f"{name}@{scale}.snap"

    def _diameter_path(self, key: str) -> Path:
        assert self._directory is not None
        return self._directory / f"{key}.diameter.json"

    def graph(self, name: str, scale: str, build: Callable[[], object]):
        """The cached graph for ``(name, scale)``, building via ``build()`` on miss.

        Disk hits come back as read-only mmap views.  Disk entries are
        loaded with ``verify=True``, so a snapshot whose checksum trailer
        disagrees with its payload, or one in a format version this build
        does not read, is treated as corrupt: the cache logs a warning and
        rebuilds over it instead of serving damaged arrays.
        """
        key = (name, scale)
        hit = self._graphs.get(key)
        if hit is not None:
            return hit
        graph = None
        if self._directory is not None:
            from repro.graph.snapshot import load_snapshot, save_snapshot

            path = self._graph_path(name, scale)
            if path.exists():
                try:
                    graph = load_snapshot(path, verify=True)
                except (OSError, ValueError) as exc:
                    # Corrupt cache file: warn and fall through to a rebuild
                    # that overwrites it.
                    _LOG.warning("dataset cache entry %s is corrupt (%s); rebuilding", path, exc)
                    graph = None
        if graph is None:
            graph = build()
            if self._directory is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                save_snapshot(graph, path)
                # Serve the disk-backed views immediately so even the
                # building process shares pages with its siblings.
                graph = self._reload_saved(path, graph)
        self._graphs[key] = graph
        return graph

    def _reload_saved(self, path: Path, fallback):
        """Reload a graph we just saved to ``path``; degrade on corruption.

        The save itself is atomic, but the bytes can still be damaged at rest
        (or by an injected ``graph.snapshot`` file fault) before we map them.
        One re-save is attempted; if the reloaded copy still fails
        verification the in-memory ``fallback`` graph is served so the caller
        always gets correct arrays — merely without page sharing.
        """
        from repro.graph.snapshot import load_snapshot, save_snapshot

        for attempt in range(2):
            try:
                return load_snapshot(path, verify=True)
            except (OSError, ValueError) as exc:
                _LOG.warning(
                    "freshly saved dataset snapshot %s failed to load back (%s); %s",
                    path,
                    exc,
                    "re-saving once" if attempt == 0 else "serving the in-memory graph",
                )
                if attempt == 0:
                    try:
                        save_snapshot(fallback, path)
                    except OSError:
                        break
        return fallback

    def diameter(self, name: str, scale: str, compute: Callable[[], int]) -> int:
        """The cached reference diameter, computing via ``compute()`` on miss.

        Each key lives in its own tiny JSON file, so concurrent workers never
        overwrite each other's entries (they either write distinct files or
        the identical deterministic value).
        """
        key = f"{name}@{scale}#sweeps={REFERENCE_SWEEPS}"
        if key in self._diameters:
            return self._diameters[key]
        value: Optional[int] = None
        if self._directory is not None:
            try:
                value = int(json.loads(self._diameter_path(key).read_text()))
            except (OSError, json.JSONDecodeError, TypeError, ValueError):
                value = None
        if value is None:
            value = int(compute())
            if self._directory is not None:
                _write_json_atomic(self._diameter_path(key), value)
        self._diameters[key] = value
        return value

    def clear(self) -> None:
        """Drop the in-memory layer (disk entries stay)."""
        self._graphs.clear()
        self._diameters.clear()
