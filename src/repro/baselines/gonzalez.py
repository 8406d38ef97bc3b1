"""Gonzalez farthest-point traversal — sequential 2-approximation for k-center.

Gonzalez (1985) and Hochbaum–Shmoys (1985) give 2-approximations for metric
k-center; the graph variant repeatedly adds the node farthest from the current
center set (:func:`farthest_point_centers`, one shortest-path row per added
center), and the result is scored by
:func:`~repro.core.kcenter.evaluate_centers`.  It is the natural
sequential quality baseline for the paper's CLUSTER-based k-center
approximation (Theorem 2): no decomposition-based parallel algorithm can beat
it on solution quality, so comparing against it bounds the practical
approximation loss of the parallel algorithm.

A ``random_centers`` baseline is included as the "no algorithm" control.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.kcenter import KCenterResult, evaluate_centers
from repro.graph import kernels
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_node_index

__all__ = ["farthest_point_centers", "gonzalez_kcenter", "random_centers_kcenter"]


def farthest_point_centers(graph: CSRGraph, k: int, first_center: int) -> List[int]:
    """Gonzalez's farthest-point traversal.

    Repeatedly adds the node farthest from the current center set: each
    addition takes the new center's distance row from
    :func:`~repro.graph.kernels.distance_rows` (hops, or weighted distance on
    a weighted graph) and merges it into the running minimum.  Nodes
    unreachable from every center (other components) take priority so every
    component gets a center as soon as possible.  Returns the selected center
    list (size ``min(k, n)``).
    """
    if graph.num_nodes == 0:
        raise ValueError("graph must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")

    def distances_from(source: int) -> np.ndarray:
        return kernels.distance_rows(
            graph.indptr, graph.indices, graph.weights, [source], degrees=graph.degrees
        )[0]

    centers = [check_node_index(first_center, graph.num_nodes, "first_center")]
    distances = distances_from(centers[0])
    for _ in range(k - 1):
        unreachable = np.flatnonzero(np.isinf(distances))
        next_center = int(unreachable[0]) if unreachable.size else int(np.argmax(distances))
        centers.append(next_center)
        distances = np.minimum(distances, distances_from(next_center))
    return centers


def gonzalez_kcenter(graph: CSRGraph, k: int, *, seed: SeedLike = None) -> KCenterResult:
    """Farthest-point traversal k-center (2-approximation on connected graphs).

    The traversal starts from a random node drawn from ``seed``
    (:func:`farthest_point_centers` takes an explicit first center).

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
