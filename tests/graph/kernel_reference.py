"""Frozen references the frontier kernels of ``repro.graph.kernels`` are pinned to.

Each function here is the original, obviously-correct implementation a
kernel replaced; tests and ``benchmarks/bench_kernels.py`` compare the
production kernel against it bit for bit (and time the two).  None of this
runs in production.

* :func:`gather_neighbors_loop` — one adjacency slice per node, behind the
  one-``repeat`` batch gather;
* :func:`sorted_claim_first` / :func:`sorted_claim_min` — the stable
  ``argsort`` / ``lexsort`` winner selection behind the sort-free scatter
  claims;
* :func:`eccentricities_loop` — one BFS per source: the eccentricity truth
  of the diameter, property and service tests;
* :func:`forced_direction` — pins every BFS level to push or pull by patching
  the private pull thresholds (``inf`` forces pull, ``0`` forces push): the
  push-only run is the reference for the direction-optimizing heuristic.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.graph import kernels


def gather_neighbors_loop(indptr, indices, nodes):
    """``(sources, targets, positions)``: each node's slice, in batch order."""
    sources, targets, positions = [], [], []
    for node in np.asarray(nodes).tolist():
        lo, hi = int(indptr[node]), int(indptr[node + 1])
        sources += [node] * (hi - lo)
        targets += np.asarray(indices[lo:hi]).tolist()
        positions += range(lo, hi)
    return tuple(np.asarray(part, dtype=np.int64) for part in (sources, targets, positions))


def sorted_claim_first(dst: np.ndarray, src: np.ndarray):
    """First claim per target via a stable argsort of the claim list."""
    order = np.argsort(dst, kind="stable")
    dst_sorted = dst[order]
    src_sorted = src[order]
    first = np.ones(dst_sorted.size, dtype=bool)
    first[1:] = dst_sorted[1:] != dst_sorted[:-1]
    return dst_sorted[first], src_sorted[first]


def sorted_claim_min(dst: np.ndarray, src: np.ndarray, key: np.ndarray):
    """Smallest-key claim per target (ties: first emission) via lexsort."""
    order = np.lexsort((key, dst))
    dst_sorted = dst[order]
    first = np.ones(dst_sorted.size, dtype=bool)
    first[1:] = dst_sorted[1:] != dst_sorted[:-1]
    return dst_sorted[first], src[order][first], key[order][first]


def eccentricities_loop(indptr, indices, sources, *, degrees=None) -> np.ndarray:
    """One :func:`~repro.graph.kernels.frontier_expansion` per source."""
    sources = np.asarray(sources, dtype=np.int64)
    out = np.zeros(sources.size, dtype=np.int64)
    for i, source in enumerate(sources):
        distances, _, _ = kernels.frontier_expansion(
            indptr, indices, np.asarray([source], dtype=np.int64), degrees=degrees
        )
        reached = distances[distances >= 0]
        out[i] = int(reached.max()) if reached.size else 0
    return out


@contextlib.contextmanager
def forced_direction(direction: str):
    """Run every BFS level ``direction`` ("push" or "pull") inside the block.

    Patches both private pull thresholds with ``monkeypatch.setattr``: at
    ``0`` every level fails the pull test, at ``inf`` every level whose
    frontier has arcs passes it (a frontier without arcs expands to nothing
    either way).  ``"auto"`` leaves the default heuristic alone.
    """
    with pytest.MonkeyPatch.context() as monkeypatch:
        if direction != "auto":
            value = {"push": 0.0, "pull": float("inf")}[direction]
            monkeypatch.setattr(kernels, "_PULL_ALPHA", value)
            monkeypatch.setattr(kernels, "_PULL_BETA", value)
        yield
