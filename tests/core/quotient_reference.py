"""Frozen quotient builders the production builder is pinned against.

These are the two builders :func:`repro.core.quotient.build_quotient_graph`
replaced: one over hop growth distances and one over the weighted growth
distances of a weighted decomposition.  Each materialises the whole edge
list and folds crossing edges with ``np.unique`` and ``np.minimum.at``.
They never run in production; the tests require the block-streamed builder
to reproduce their ``indptr``, ``indices`` and ``weights`` exactly.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def _empty(k: int, weighted: bool) -> CSRGraph:
    weights = np.zeros(0) if weighted else None
    return CSRGraph(indptr=np.zeros(k + 1, dtype=np.int64), indices=np.zeros(0, dtype=np.int64), weights=weights)


def _fold(keys: np.ndarray, path_len, k: int, weighted: bool) -> CSRGraph:
    if not weighted:
        unique_keys = np.unique(keys)
        q_edges = np.stack([unique_keys // k, unique_keys % k], axis=1)
        return CSRGraph.from_edges(q_edges, num_nodes=k)
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    min_weight = np.full(unique_keys.size, np.inf)
    np.minimum.at(min_weight, inverse, path_len)
    q_edges = np.stack([unique_keys // k, unique_keys % k], axis=1)
    q_graph = CSRGraph.from_edges(q_edges, num_nodes=k)
    # Align weights with the CSR arc order: every stored arc (a, b) maps back
    # to the canonical pair key min*k + max.
    src = np.repeat(np.arange(k, dtype=np.int64), np.diff(q_graph.indptr))
    arc_keys = np.minimum(src, q_graph.indices) * np.int64(k) + np.maximum(src, q_graph.indices)
    positions = np.searchsorted(unique_keys, arc_keys)
    weights = min_weight[positions].astype(np.float64)
    return CSRGraph(indptr=q_graph.indptr, indices=q_graph.indices, weights=weights)


def reference_quotient(graph: CSRGraph, clustering, *, weighted: bool = False) -> CSRGraph:
    """Quotient over hop growth distances: ``dist(a) + 1 + dist(b)``."""
    k = clustering.num_clusters
    edges = graph.edges()
    if edges.size == 0:
        return _empty(k, weighted)
    cu = clustering.assignment[edges[:, 0]]
    cv = clustering.assignment[edges[:, 1]]
    cross = cu != cv
    if not np.any(cross):
        return _empty(k, weighted)
    crossing = edges[cross]
    path_len = (clustering.distance[crossing[:, 0]] + clustering.distance[crossing[:, 1]] + 1).astype(np.float64)
    keys = np.minimum(cu[cross], cv[cross]) * np.int64(k) + np.maximum(cu[cross], cv[cross])
    return _fold(keys, path_len, k, weighted)


def reference_weighted_quotient(graph, clustering) -> CSRGraph:
    """Quotient of a weighted decomposition: ``wdist(a) + w(a, b) + wdist(b)``."""
    k = clustering.num_clusters
    edges, weights = graph.edge_list()
    if edges.size == 0:
        return _empty(k, True)
    cu = clustering.assignment[edges[:, 0]]
    cv = clustering.assignment[edges[:, 1]]
    cross = cu != cv
    if not np.any(cross):
        return _empty(k, True)
    crossing = edges[cross]
    path_len = (
        clustering.weighted_distance[crossing[:, 0]]
        + clustering.weighted_distance[crossing[:, 1]]
        + weights[cross]
    )
    keys = np.minimum(cu[cross], cv[cross]) * np.int64(k) + np.maximum(cu[cross], cv[cross])
    return _fold(keys, path_len, k, True)
