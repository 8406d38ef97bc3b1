"""Quotient graphs of a clustering (unweighted and weighted variants).

Given a decomposition ``C`` of a graph ``G``, the quotient graph ``G_C`` has
one node per cluster and an edge between two clusters whenever ``G`` contains
an edge whose endpoints lie in the two clusters.  Section 4 of the paper uses
two variants:

* the **unweighted** quotient graph, whose diameter ``∆_C`` lower-bounds the
  true diameter and yields the upper bound
  ``∆' = 2·R_ALG2·(∆_C + 1) + ∆_C``;
* the **weighted** quotient graph, where the edge between clusters ``A`` and
  ``B`` is weighted with the length of the shortest path of ``G`` connecting
  the two cluster centers using only nodes of the two clusters (computed as
  ``min over crossing edges (a, b) of dist(a, center_A) + 1 + dist(b,
  center_B)``), yielding the tighter upper bound ``∆'' = 2·R_ALG2 + ∆'_C``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.clustering import Clustering
from repro.graph import kernels
from repro.graph.csr import CSRGraph

__all__ = [
    "QuotientGraph",
    "build_quotient_graph",
    "quotient_apsp",
    "quotient_diameter",
]


@dataclass(frozen=True)
class QuotientGraph:
    """Quotient graph of a clustering, with optional per-arc weights.

    Attributes
    ----------
    graph:
        Cluster-level :class:`CSRGraph` (one node per cluster).
    weights:
        ``float64`` array aligned with ``graph.indices`` giving the weight of
        every stored arc, or ``None`` for the unweighted variant.
    """

    graph: CSRGraph
    weights: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def arc_weight(self, u: int, v: int) -> float:
        """Weight of arc ``(u, v)`` (1.0 for unweighted quotient graphs)."""
        row = self.graph.indices[self.graph.indptr[u]: self.graph.indptr[u + 1]]
        pos = np.searchsorted(row, v)
        if pos >= row.size or row[pos] != v:
            raise KeyError(f"no quotient edge between clusters {u} and {v}")
        if self.weights is None:
            return 1.0
        return float(self.weights[self.graph.indptr[u] + pos])


def build_quotient_graph(
    graph: CSRGraph, clustering: Clustering, *, weighted: bool = False
) -> QuotientGraph:
    """Construct the (optionally weighted) quotient graph of ``clustering``.

    The weight of the quotient edge ``{A, B}`` is
    ``min over G-edges (a, b) with a ∈ A, b ∈ B of
    dist(a, center_A) + 1 + dist(b, center_B)``
    where the distances are the growth distances recorded by the clustering
    (the exact quantity a distributed implementation has available).
    """
    if graph.num_nodes != clustering.num_nodes:
        raise ValueError("graph and clustering refer to different node sets")
    k = clustering.num_clusters
    edges = graph.edge_array()
    if edges.size == 0:
        return QuotientGraph(graph=CSRGraph.empty(k), weights=np.zeros(0) if weighted else None)
    cu = clustering.assignment[edges[:, 0]]
    cv = clustering.assignment[edges[:, 1]]
    cross = cu != cv
    cu, cv = cu[cross], cv[cross]
    if cu.size == 0:
        return QuotientGraph(graph=CSRGraph.empty(k), weights=np.zeros(0) if weighted else None)
    lo = np.minimum(cu, cv)
    hi = np.maximum(cu, cv)
    pair_keys = lo * np.int64(k) + hi
    if not weighted:
        unique_keys = np.unique(pair_keys)
        q_edges = np.stack([unique_keys // k, unique_keys % k], axis=1)
        return QuotientGraph(graph=CSRGraph.from_edges(q_edges, num_nodes=k), weights=None)

    crossing = edges[cross]
    path_len = (
        clustering.distance[crossing[:, 0]]
        + clustering.distance[crossing[:, 1]]
        + 1
    ).astype(np.float64)
    unique_keys, inverse = np.unique(pair_keys, return_inverse=True)
    min_weight = np.full(unique_keys.size, np.inf)
    np.minimum.at(min_weight, inverse, path_len)
    q_edges = np.stack([unique_keys // k, unique_keys % k], axis=1)
    q_graph = CSRGraph.from_edges(q_edges, num_nodes=k)

    # Align weights with the CSR arc order of the quotient graph: every stored
    # arc (a, b) maps back to the canonical pair key min*k + max.
    src = np.repeat(np.arange(k, dtype=np.int64), np.diff(q_graph.indptr))
    arc_keys = np.minimum(src, q_graph.indices) * np.int64(k) + np.maximum(src, q_graph.indices)
    positions = np.searchsorted(unique_keys, arc_keys)
    weights = min_weight[positions].astype(np.float64)
    return QuotientGraph(graph=q_graph, weights=weights)


#: Source-by-arc budget of one weighted tile: ``delta_stepping_rows`` relaxes
#: ``max(1, _TILE_ARCS // num_arcs)`` rows at a time.  In a sweep of 2^14 to
#: 2^19 (EXPERIMENTS.md), 2^16 was the fastest on dense R-MAT quotients and
#: 17% behind the best on sparse road ones.
_TILE_ARCS = 1 << 16


def _distance_tiles(quotient: QuotientGraph) -> Iterator[Tuple[int, np.ndarray]]:
    """Row tiles ``(first_row, float64 block)`` of the quotient's APSP matrix.

    Hop distances come from the bit-parallel
    :func:`~repro.graph.kernels.msbfs_levels` sweep in tiles of
    :func:`~repro.graph.kernels.msbfs_batch_size` sources; weighted ones from
    :func:`~repro.graph.kernels.delta_stepping_rows` in tiles of
    ``_TILE_ARCS // num_arcs`` sources.  Unreached entries are ``inf``.
    """
    n = quotient.num_nodes
    indptr = quotient.graph.indptr
    indices = quotient.graph.indices
    weights = quotient.weights
    if weights is None:
        degrees = quotient.graph.degrees
        rows = kernels.msbfs_batch_size()
    else:
        rows = max(1, _TILE_ARCS // max(1, indices.size))
    for lo in range(0, n, rows):
        sources = np.arange(lo, min(lo + rows, n), dtype=np.int64)
        if weights is None:
            hops = kernels.msbfs_levels(indptr, indices, sources, degrees=degrees)
            block = hops.astype(np.float64)
            block[hops < 0] = np.inf
        else:
            block = kernels.delta_stepping_rows(indptr, indices, weights, sources)
        yield lo, block


def quotient_apsp(quotient: QuotientGraph) -> np.ndarray:
    """All-pairs shortest-path matrix of a (small) quotient graph.

    The distance oracle's data structure.  Rows are filled tile by tile from
    the shared kernels of :mod:`repro.graph.kernels`: the bit-parallel
    :func:`~repro.graph.kernels.msbfs_levels` sweep (64 sources per
    ``uint64`` word) for the unweighted flavour, and the batched Δ-stepping
    :func:`~repro.graph.kernels.delta_stepping_rows` (a tile of sources per
    bucket loop) for the weighted one — so the serving plane needs no external
    shortest-path dependency.  Entry ``(a, b)`` is ``float64`` (``inf`` when
    the clusters lie in different components), following the conventions of
    ``scipy.sparse.csgraph.shortest_path``; row ``a`` is bit-identical to a
    single-source :func:`~repro.graph.kernels.delta_stepping` from ``a``.
    With non-integer weights the matrix need not be bitwise symmetric:
    ``(a, b)`` and ``(b, a)`` round the same path's sum in opposite orders.
    """
    n = quotient.num_nodes
    matrix = np.empty((n, n), dtype=np.float64)
    for lo, block in _distance_tiles(quotient):
        matrix[lo : lo + block.shape[0]] = block
    return matrix


def quotient_diameter(quotient: QuotientGraph) -> float:
    """Exact diameter of a (connected) quotient graph.

    A running max over the row tiles that :func:`quotient_apsp` would stack,
    so no ``k × k`` matrix is allocated: the "one round, single reducer"
    computation of Theorem 4 in ``O(tile)`` memory.  Hop distances for the
    unweighted flavour, weighted distances for the weighted one.

    Raises
    ------
    ValueError
        If the quotient graph is empty, or disconnected (the underlying graph
        was disconnected), since the diameter is then infinite.
    """
    if quotient.num_nodes == 0:
        raise ValueError("quotient graph is empty")
    best = 0.0
    for _, block in _distance_tiles(quotient):
        if not np.isfinite(block).all():
            raise ValueError("quotient graph is disconnected; diameter is infinite")
        best = max(best, float(block.max()))
    return best
