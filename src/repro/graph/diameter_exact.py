"""Exact diameters (ground truth).

The paper reports a "true diameter" column (Tables 1, 3 and 4) computed with
accurate external tools.  At laptop scale the library computes it directly:

* :func:`bounded_diameter` — the exact diameter of a hop or weighted CSR
  graph from a few distance rows, pruned by eccentricity bounds
  (BoundingDiameters, Takes & Kosters, CIKM 2011; a relative of the iFUB
  scheme of [10] in the paper).  The quotient diameters ``∆_C`` and
  ``∆'_C`` of Section 4 run it too.
* :func:`exact_diameter` — the exact hop diameter of a connected graph.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph import kernels
from repro.graph.csr import CSRGraph

__all__ = [
    "bounded_diameter",
    "exact_diameter",
]


def bounded_diameter(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: Optional[np.ndarray] = None,
    *,
    degrees: Optional[np.ndarray] = None,
) -> Tuple[float, int]:
    """Exact diameter of a connected CSR graph from few distance rows.

    Returns ``(diameter, rows)``: the largest entry of the distance matrix
    (hops when ``weights`` is ``None``) and the number of rows computed.

    A row ``d`` from ``v`` bounds every eccentricity:
    ``max(d[w], ecc(v) - d[w]) <= ecc(w) <= ecc(v) + d[w]``.  A node is
    dropped once its upper bound is at most the best eccentricity so far,
    or, with exact sums, once no node left can lie farther from it than the
    best: ``d(x, y) <= d_r[x] + d_r[y]`` through the first row's source
    ``r`` (iFUB's fringe rule).  A pair with a computed or dropped end never
    exceeds the best, so the loop ends when no node is left.  The first row
    is the highest-degree node's (a graph of at most one tile computes all
    rows at once); then each tile of :func:`~repro.graph.kernels.row_tile`
    sources alternates between the largest upper and the smallest lower
    bound, ties going to the higher degree.  Rows come from
    :func:`~repro.graph.kernels.distance_rows` and depend only on their
    source, so the result is the maximum over all ``n`` rows bit for bit.

    Hops and integer weights sum exactly in float64.  Other weights round: a
    computed distance sums at most ``n - 1`` weights, so it lies within a
    factor ``1 ± (n - 1)·2^-53`` of the true one; upper bounds are inflated
    by ``1 + 4(n + 1)·2^-53`` before the comparison, and the pair rule is
    not used.

    Raises ``ValueError`` for an empty or disconnected graph.
    """
    n = indptr.size - 1
    if n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    if degrees is None:
        degrees = np.diff(indptr)
    exact = weights is None or (np.array_equal(weights, np.rint(weights)) and weights.sum() <= 2.0**53)
    slack = 1.0 if exact else 1.0 + 4 * (n + 1) * 2.0**-53
    tile = kernels.row_tile(indices.size)
    # Bounds are kept in degree order, so stable sorts break ties by degree.
    order = np.argsort(-degrees, kind="stable")
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    alive = np.ones(n, dtype=bool)
    best = 0.0
    rows = 0
    picked = np.arange(n if n <= tile else 1)
    root = None
    far_first = True
    while True:
        block = kernels.distance_rows(indptr, indices, weights, order[picked], degrees=degrees)[:, order]
        rows += picked.size
        if not np.isfinite(block).all():
            raise ValueError("graph is disconnected; its diameter is infinite")
        root = block[0] if root is None else root
        ecc = block.max(axis=1)
        best = max(best, float(ecc.max()))
        np.maximum(lower, np.maximum(block, ecc[:, None] - block).max(axis=0), out=lower)
        np.minimum(upper, (ecc[:, None] + block).min(axis=0), out=upper)
        alive[picked] = False
        alive &= upper * slack > best
        if exact and alive.any():
            alive &= root + root[alive].max() > best
        left = np.flatnonzero(alive)
        if left.size <= tile:
            if left.size == 0:
                return best, rows
            picked = left
            continue
        far = left[np.argsort(-upper[left], kind="stable")[:tile]]
        central = left[np.argsort(lower[left], kind="stable")[:tile]]
        picks = np.stack((far, central) if far_first else (central, far), axis=1).reshape(-1)
        far_first = not far_first
        _, first = np.unique(picks, return_index=True)
        picked = picks[np.sort(first)[:tile]]


def exact_diameter(graph: CSRGraph) -> int:
    """Exact hop diameter of a connected graph, by :func:`bounded_diameter`.

    Edge weights, if any, are ignored.  Raises ``ValueError`` for an empty or
    disconnected graph.
    """
    diameter, _ = bounded_diameter(graph.indptr, graph.indices, degrees=graph.degrees)
    return int(diameter)
