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

Both variants are plain :class:`~repro.graph.csr.CSRGraph` objects over the
clusters and share one CSR: the unweighted one is the weighted one without
its ``weights`` (:meth:`~repro.graph.csr.CSRGraph.unweighted`), so a caller
that needs both builds once.  The build is the sort of arcs by cluster pair
that Section 4 charges: it reads each arc once, through one packed
``cluster << s | distance`` code per node, and keeps the shortest crossing
per cluster pair with :func:`~repro.graph.kernels.min_per_key`, the fold
behind every CSR build (see :func:`build_quotient_graph`).
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import Clustering
from repro.graph import kernels
from repro.graph.csr import CSRGraph
from repro.graph.diameter_exact import bounded_diameter

__all__ = [
    "build_quotient_graph",
    "quotient_apsp",
    "quotient_diameter",
]

#: Arcs per CSR row block in :func:`build_quotient_graph`; bounds the block's
#: temporaries (a few arrays of this length) on graphs of any size.  At 2^18
#: they take a few MB, which the allocator reuses from build to build; 2^22
#: blocks put ~15 MB of them at the top of the heap on a 1M-arc graph, and
#: whether glibc then trimmed it (to page-fault it back in on the next build)
#: differed from one process to the next.
_BLOCK_ARCS = 1 << 18


def build_quotient_graph(graph: CSRGraph, clustering: Clustering, *, weighted: bool = False) -> CSRGraph:
    """Construct the (optionally weighted) quotient graph of ``clustering``.

    Returns a :class:`~repro.graph.csr.CSRGraph` with one node per cluster,
    carrying per-arc ``weights`` when ``weighted``.  The weight of the
    quotient edge ``{A, B}`` is ``min over G-edges (a, b) with a ∈ A, b ∈ B
    of dist(a, center_A) + 1 + dist(b, center_B)`` over the growth distances
    the clustering recorded (the exact quantity a distributed implementation
    has available); for a weighted clustering it is
    ``wdist(a) + w(a, b) + wdist(b)``, a genuine path length.

    The CSR is read in row blocks of at most ``_BLOCK_ARCS`` arcs, so an
    out-of-core graph is never materialised.  Every node carries one code,
    ``cluster << s | distance``, where ``s`` is the bit length of the largest
    growth distance (``s = 0``, the bare cluster id, when no hop length is
    needed); codes are ``int32`` while ``k << s < 2**31`` and ``int64``
    beyond.  An arc ``(a, b)`` reads its two codes once.  With ``low = 2**s
    - 1``, ``code(a) | low < code(b)`` holds exactly when ``a``'s cluster is
    the lower one, so the test keeps one arc per crossing edge (the CSR
    stores both directions of every edge), and the same two codes give the
    pair key and the hop length.  Each block reduces its kept arcs to
    (cluster pair, minimum length) with
    :func:`~repro.graph.kernels.min_per_key`, the blocks are merged by the
    same fold, and :func:`~repro.graph.kernels.pairs_to_csr` mirrors the
    pairs into CSR order, as in :meth:`CSRGraph.from_edges`.
    """
    if graph.num_nodes != clustering.num_nodes:
        raise ValueError("graph and clustering refer to different node sets")
    k = clustering.num_clusters
    weighted_distance = clustering.weighted_distance
    if weighted and weighted_distance is not None and graph.weights is None:
        raise ValueError("a weighted clustering's quotient needs the weighted graph it was grown on")
    hops = weighted and weighted_distance is None
    s = int(clustering.distance.max()).bit_length() if hops and graph.num_nodes else 0
    low = (1 << s) - 1
    code = clustering.assignment.astype(np.int32 if k << s < 1 << 31 else np.int64) << s
    if s:
        code |= clustering.distance
    indptr = graph.indptr
    degrees = graph.degrees
    key_parts = [np.zeros(0, dtype=np.int64)]
    length_parts = [np.zeros(0, dtype=np.int64 if weighted_distance is None else np.float64)]
    start = 0
    while start < graph.num_nodes:
        stop = max(start + 1, int(np.searchsorted(indptr, indptr[start] + _BLOCK_ARCS, side="right")) - 1)
        first, last = int(indptr[start]), int(indptr[stop])
        b = np.asarray(graph.indices[first:last])
        pa = np.repeat(code[start:stop], degrees[start:stop])
        pb = code[b]
        # The arc of each crossing edge that leaves the lower cluster.
        sel = np.flatnonzero((pa | low) < pb)
        pa, pb = pa[sel].astype(np.int64), pb[sel].astype(np.int64)
        keys = (pa >> s) * k + (pb >> s)
        lengths = (pa & low) + (pb & low) + 1 if hops else None
        if weighted and not hops:
            wa = np.repeat(weighted_distance[start:stop], degrees[start:stop])[sel]
            lengths = wa + weighted_distance[b[sel]] + np.asarray(graph.weights[first:last])[sel]
        keys, lengths = kernels.min_per_key(keys, lengths)
        key_parts.append(keys)
        length_parts.append(lengths)
        start = stop
    keys = np.concatenate(key_parts)
    lengths = np.concatenate(length_parts) if weighted else None
    if len(key_parts) > 2:
        keys, lengths = kernels.min_per_key(keys, lengths)
    q_indptr, q_indices, lengths = kernels.pairs_to_csr(keys // k, keys % k, lengths, k)
    weights = lengths.astype(np.float64, copy=False) if weighted else None
    return CSRGraph(indptr=q_indptr, indices=q_indices, weights=weights)


def quotient_apsp(quotient: CSRGraph) -> np.ndarray:
    """All-pairs shortest-path matrix of a (small) quotient graph.

    The distance oracle's data structure, filled by
    :func:`~repro.graph.kernels.distance_rows` in tiles of sources (pair-id
    BFS for the hop flavour, batched Δ-stepping for the weighted one), so the
    serving plane needs no external shortest-path dependency.  Entries are
    ``float64``, ``inf`` between components, as in
    ``scipy.sparse.csgraph.shortest_path``; row ``a`` is bit-identical to a
    single-source :func:`~repro.graph.kernels.delta_stepping` from ``a``.
    With non-integer weights the matrix need not be bitwise symmetric:
    ``(a, b)`` and ``(b, a)`` round one path's sum in opposite orders.

    Hop tiles hold :func:`~repro.graph.kernels.row_tile` ``(arcs)`` sources,
    weighted tiles ``row_tile(n)``, sized by their output block.  A
    Δ-stepping tile runs about as many bucket rounds as the weighted
    diameter has buckets, whatever its size, and each round scans the tile's
    whole distance block, so fewer, larger tiles pay that per-round overhead
    less often.  The pair-id BFS's work per level is its frontier's arcs, and
    output-sized hop tiles were slower on a dense R-MAT quotient.
    """
    n = quotient.num_nodes
    weights = quotient.weights
    tile = kernels.row_tile(quotient.indices.size if weights is None else n)
    matrix = np.empty((n, n), dtype=np.float64)
    for lo in range(0, n, tile):
        sources = np.arange(lo, min(lo + tile, n), dtype=np.int64)
        matrix[lo : lo + sources.size] = kernels.distance_rows(
            quotient.indptr, quotient.indices, weights, sources, degrees=quotient.degrees
        )
    return matrix


def quotient_diameter(quotient: CSRGraph) -> float:
    """Exact diameter of a (connected) quotient graph.

    The "one round, single reducer" computation of Theorem 4, by
    :func:`~repro.graph.diameter_exact.bounded_diameter`: eccentricity bounds
    prune all but a few rows of the distance matrix, and the result equals
    the maximum over every row of :func:`quotient_apsp` bit for bit.  Hop
    distances for the unweighted flavour, weighted distances for the
    weighted one.

    Raises
    ------
    ValueError
        If the quotient graph is empty, or disconnected (the underlying graph
        was disconnected), since the diameter is then infinite.
    """
    if quotient.num_nodes == 0:
        raise ValueError("quotient graph is empty")
    diameter, _ = bounded_diameter(quotient.indptr, quotient.indices, quotient.weights, degrees=quotient.degrees)
    return diameter
