"""Seeded edge-weight attachment for the synthetic generators.

Weighted experiments should not have to hand-build edge lists: every
generator accepts a ``weights=`` option and emits a weighted
:class:`~repro.graph.csr.CSRGraph` *directly in CSR arrays* — one weight is
drawn per undirected edge and mirrored onto both stored arcs, without a
round-trip through an edge list.

Two weight models are provided:

* ``"uniform"`` — independent ``U[low, high]`` draws per edge;
* ``"degree"`` — degree-correlated draws: the uniform draw is scaled by
  ``sqrt(deg(u) · deg(v))`` normalized to mean 1, so edges between hubs are
  systematically heavier (a common road-capacity / social-strength model).
  Weights stay strictly positive and average ``(low + high) / 2``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng

__all__ = ["WEIGHT_KINDS", "attach_weights", "maybe_attach_weights"]

#: Supported ``weights=`` options of the generators.
WEIGHT_KINDS = ("uniform", "degree")


def attach_weights(
    graph: CSRGraph,
    kind: str = "uniform",
    *,
    low: float = 1.0,
    high: float = 10.0,
    seed: SeedLike = None,
) -> CSRGraph:
    """Attach seeded edge weights to ``graph`` directly in CSR arrays.

    One weight is drawn per undirected edge (in canonical ``u < v`` key order,
    so the draw sequence is independent of the CSR arc layout) and assigned to
    both stored copies of the edge; the returned graph shares ``indptr`` /
    ``indices`` with the input.
    """
    if kind not in WEIGHT_KINDS:
        raise ValueError(f"unknown weight kind {kind!r}; choose from {WEIGHT_KINDS}")
    if not (0 < low <= high):
        raise ValueError("need 0 < low <= high")
    rng = as_rng(seed)
    n = graph.num_nodes
    if graph.indices.size == 0:
        return CSRGraph(indptr=graph.indptr, indices=graph.indices, weights=np.zeros(0))
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    dst = graph.indices
    keys = np.minimum(src, dst) * np.int64(n) + np.maximum(src, dst)
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    per_edge = rng.uniform(low, high, size=unique_keys.size)
    if kind == "degree":
        degrees = np.diff(graph.indptr).astype(np.float64)
        u = unique_keys // n
        v = unique_keys % n
        factor = np.sqrt(degrees[u] * degrees[v])
        per_edge = per_edge * (factor / factor.mean())
    return CSRGraph(indptr=graph.indptr, indices=graph.indices, weights=per_edge[inverse])


def maybe_attach_weights(
    graph: CSRGraph,
    weights: Optional[str],
    *,
    weight_range: Tuple[float, float] = (1.0, 10.0),
    rng: SeedLike = None,
) -> CSRGraph:
    """Generator plumbing: return ``graph`` unchanged when ``weights`` is None,
    otherwise attach the requested weight model with the generator's RNG."""
    if weights is None:
        return graph
    low, high = weight_range
    return attach_weights(graph, weights, low=low, high=high, seed=rng)
