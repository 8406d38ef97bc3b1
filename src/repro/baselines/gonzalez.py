"""Gonzalez farthest-point traversal — sequential 2-approximation for k-center.

Gonzalez (1985) and Hochbaum–Shmoys (1985) give 2-approximations for metric
k-center; the graph variant repeatedly adds the node farthest from the current
center set (:func:`~repro.core.growth_engine.farthest_point_centers`, one
shortest-path row per added center), and the result is scored by
:func:`~repro.core.kcenter.evaluate_centers`.  It is the natural
sequential quality baseline for the paper's CLUSTER-based k-center
approximation (Theorem 2): no decomposition-based parallel algorithm can beat
it on solution quality, so comparing against it bounds the practical
approximation loss of the parallel algorithm.

A ``random_centers`` baseline is included as the "no algorithm" control.
"""

from __future__ import annotations

import numpy as np

from repro.core.growth_engine import farthest_point_centers
from repro.core.kcenter import KCenterResult, evaluate_centers
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng

__all__ = ["gonzalez_kcenter", "random_centers_kcenter"]


def gonzalez_kcenter(graph: CSRGraph, k: int, *, seed: SeedLike = None) -> KCenterResult:
    """Farthest-point traversal k-center (2-approximation on connected graphs).

    The traversal starts from a random node drawn from ``seed``
    (:func:`~repro.core.growth_engine.farthest_point_centers` takes an
    explicit first center).

    Parameters
    ----------
    k:
        Number of centers (1 ≤ k ≤ n).

    Notes
    -----
    Runs ``k`` single-source traversals, i.e. ``O(k (n + m))`` work and, in a
    round-synchronous distributed setting, ``Θ(k ∆)`` rounds — which is why
    the paper needs a decomposition-based approach for the parallel setting.
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        return evaluate_centers(graph, np.arange(n, dtype=np.int64), algorithm="gonzalez")
    first_center = int(as_rng(seed).integers(0, n))
    centers = farthest_point_centers(graph, k, first_center)
    return evaluate_centers(graph, centers, algorithm="gonzalez")


def random_centers_kcenter(graph: CSRGraph, k: int, *, seed: SeedLike = None) -> KCenterResult:
    """Uniformly random centers (control baseline)."""
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = as_rng(seed)
    centers = rng.choice(n, size=min(k, n), replace=False)
    return evaluate_centers(graph, centers, algorithm="random")
