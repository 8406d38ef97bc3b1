"""Applications of the weighted decomposition: k-center and diameter bounds.

These mirror Sections 3.1 and 4 of the paper in the weighted setting enabled
by :mod:`repro.weighted.decomposition`:

* :func:`weighted_kcenter` — weighted graph k-center via the decomposition
  (evaluate with exact multi-source Dijkstra), with
  :func:`weighted_gonzalez_kcenter` as the sequential 2-approximation
  reference;
* :func:`estimate_weighted_diameter` — upper/lower bounds on the weighted
  diameter through the weighted quotient graph
  (``∆_w ≤ 2·weighted_radius + diam(weighted quotient)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.quotient import build_quotient_graph, quotient_diameter
from repro.utils.rng import SeedLike, as_rng
from repro.weighted.decomposition import WeightedClustering, weighted_cluster
from repro.weighted.traversal import multi_source_dijkstra, weighted_double_sweep
from repro.weighted.wgraph import WeightedCSRGraph

__all__ = [
    "WeightedKCenterResult",
    "weighted_kcenter",
    "weighted_gonzalez_kcenter",
    "WeightedDiameterEstimate",
    "estimate_weighted_diameter",
]


# --------------------------------------------------------------------------- #
# k-center
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WeightedKCenterResult:
    """A weighted k-center solution (radius measured in weighted distance)."""

    centers: np.ndarray
    assignment: np.ndarray
    distance: np.ndarray
    radius: float
    algorithm: str = "weighted-cluster"

    @property
    def k(self) -> int:
        return int(self.centers.size)


def _evaluate_weighted_centers(
    graph: WeightedCSRGraph, centers: np.ndarray, algorithm: str
) -> WeightedKCenterResult:
    center_array = np.unique(np.asarray(centers, dtype=np.int64))
    result = multi_source_dijkstra(graph, list(center_array))
    distances = result.distances.copy()
    unreachable = ~np.isfinite(distances)
    radius = float(distances[~unreachable].max()) if np.any(~unreachable) else 0.0
    if np.any(unreachable):
        radius = math.inf
    owner = result.sources.copy()
    owner[unreachable] = center_array[0]
    assignment = np.searchsorted(center_array, owner)
    return WeightedKCenterResult(
        centers=center_array,
        assignment=assignment.astype(np.int64),
        distance=distances,
        radius=radius,
        algorithm=algorithm,
    )


def weighted_kcenter(
    graph: WeightedCSRGraph, k: int, *, seed: SeedLike = None, tau: Optional[int] = None
) -> WeightedKCenterResult:
    """Weighted k-center via the hop-bounded weighted decomposition.

    Runs ``weighted_cluster`` with ``τ ≈ k / log² n``, keeps (at most) the
    ``k`` cluster centers whose clusters are largest, and evaluates the
    objective exactly with multi-source Dijkstra.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    if k >= n:
        return _evaluate_weighted_centers(graph, np.arange(n), "weighted-cluster")
    rng = as_rng(seed)
    if tau is None:
        tau = max(1, int(round(k / (math.log2(max(2, n)) ** 2))))
    clustering = weighted_cluster(graph, tau, seed=rng)
    sizes = clustering.cluster_sizes()
    order = np.argsort(sizes)[::-1]
    chosen = clustering.centers[order[: min(k, clustering.num_clusters)]]
    return _evaluate_weighted_centers(graph, chosen, "weighted-cluster")


def weighted_gonzalez_kcenter(
    graph: WeightedCSRGraph, k: int, *, seed: SeedLike = None, first_center: Optional[int] = None
) -> WeightedKCenterResult:
    """Weighted farthest-point traversal (Gonzalez) — 2-approximation reference."""
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        return _evaluate_weighted_centers(graph, np.arange(n), "weighted-gonzalez")
    rng = as_rng(seed)
    if first_center is None:
        first_center = int(rng.integers(0, n))
    centers = [int(first_center)]
    distances = multi_source_dijkstra(graph, centers).distances
    for _ in range(k - 1):
        unreachable = np.flatnonzero(~np.isfinite(distances))
        if unreachable.size:
            next_center = int(unreachable[0])
        else:
            next_center = int(np.argmax(distances))
        centers.append(next_center)
        new_dist = multi_source_dijkstra(graph, [next_center]).distances
        distances = np.minimum(distances, new_dist)
    return _evaluate_weighted_centers(graph, np.asarray(centers), "weighted-gonzalez")


# --------------------------------------------------------------------------- #
# Diameter
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WeightedDiameterEstimate:
    """Bounds on the weighted diameter obtained through the decomposition.

    ``num_quotient_edges`` and the :attr:`radius` alias make this estimate
    interchangeable with the unweighted
    :class:`~repro.core.diameter.DiameterEstimate` in the pipeline summaries
    and MR accounting.
    """

    lower_bound: float
    upper_bound: float
    weighted_radius: float
    hop_radius: int
    num_clusters: int
    clustering: WeightedClustering
    num_quotient_edges: int = 0

    @property
    def radius(self) -> float:
        """Alias of :attr:`weighted_radius` (the pipeline-summary name)."""
        return self.weighted_radius

    def contains(self, true_diameter: float) -> bool:
        return self.lower_bound <= true_diameter + 1e-9 and true_diameter <= self.upper_bound + 1e-9


def estimate_weighted_diameter(
    graph: WeightedCSRGraph,
    *,
    tau: Optional[int] = None,
    seed: SeedLike = None,
    clustering: Optional[WeightedClustering] = None,
) -> WeightedDiameterEstimate:
    """Estimate the weighted diameter of a connected weighted graph.

    * upper bound: ``2 · weighted_radius + diam(weighted quotient)``;
    * lower bound: weighted double sweep (exact Dijkstra from two nodes).

    Raises ``ValueError`` for an empty graph, and for a disconnected one
    (its quotient is disconnected, so the diameter is infinite).
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    rng = as_rng(seed)
    if clustering is None:
        if tau is None:
            tau = max(1, int(math.ceil(math.sqrt(n) / max(1.0, math.log2(max(2, n))))))
        clustering = weighted_cluster(graph, tau, seed=rng)
    quotient = build_quotient_graph(graph, clustering, weighted=True)
    upper = 2.0 * clustering.weighted_radius + quotient_diameter(quotient)
    lower, _, _ = weighted_double_sweep(graph, rng=rng)
    return WeightedDiameterEstimate(
        lower_bound=float(lower),
        upper_bound=float(upper),
        weighted_radius=clustering.weighted_radius,
        hop_radius=clustering.hop_radius,
        num_clusters=clustering.num_clusters,
        clustering=clustering,
        num_quotient_edges=quotient.num_edges,
    )
