"""Frozen references the frontier kernels of ``repro.graph.kernels`` are pinned to.

Each function here is the original, obviously-correct implementation a
kernel replaced; tests and ``benchmarks/bench_kernels.py`` compare the
production kernel against it bit for bit (and time the two).  None of this
runs in production.

* :func:`fold_undirected_edges` — ``np.unique`` with ``return_inverse``,
  ``np.minimum.at`` and a two-key ``lexsort`` over all arcs: the edge-list
  fold ``CSRGraph.from_edges`` ran before it and streamed ingestion shared
  :func:`~repro.graph.kernels.min_per_key`;
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
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.graph import kernels


def fold_undirected_edges(
    edge_array: np.ndarray,
    weight_array: Optional[np.ndarray],
    num_nodes: int,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Shared edge-list folding: drop self-loops, symmetrize, deduplicate.

    Returns ``(indptr, indices, weights)``.  Duplicate undirected edges keep
    the *minimum* weight (the only sensible choice for shortest-path
    purposes); without weights the duplicates are simply dropped.
    """
    n = num_nodes
    mask = edge_array[:, 0] != edge_array[:, 1]
    edge_array = edge_array[mask]
    if weight_array is not None:
        weight_array = weight_array[mask]
    if edge_array.size == 0:
        return (
            np.zeros(n + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            None if weight_array is None else np.zeros(0, dtype=np.float64),
        )
    # Canonicalize to (min, max), fold duplicates, then mirror both ways.
    canonical = np.sort(edge_array, axis=1)
    keys = canonical[:, 0] * np.int64(n) + canonical[:, 1]
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    unique_edges = np.stack([unique_keys // n, unique_keys % n], axis=1)
    both = np.concatenate([unique_edges, unique_edges[:, ::-1]], axis=0)
    both_weights = None
    if weight_array is not None:
        folded = np.full(unique_keys.size, np.inf)
        np.minimum.at(folded, inverse, weight_array)
        both_weights = np.concatenate([folded, folded])
    order = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order]
    counts = np.bincount(both[:, 0], minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    weights = None if both_weights is None else both_weights[order].copy()
    return indptr, both[:, 1].copy(), weights


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
