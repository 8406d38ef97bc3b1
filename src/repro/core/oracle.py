"""Linear-space approximate distance oracle (end of Section 4), batch-first.

Running CLUSTER2(τ) with ``τ = O(sqrt(n) / log⁴ n)`` produces ``O(sqrt(n))``
clusters; storing the all-pairs shortest-path matrix of the weighted quotient
graph then takes ``O(n)`` space and yields, for every pair of nodes ``(u, v)``,
an upper bound

    d'(u, v) = dist(u, c_u) + dist_{G_C}(C_u, C_v) + dist(v, c_v)

that is within ``O(d(u, v) log³ n + R_ALG2)`` of the true distance — i.e. a
polylogarithmic approximation for pairs that are far apart (distance
``Ω(R_ALG2)``).  The oracle also returns the trivial lower bound given by the
unweighted quotient hop distance.

The public API is **batch-first**: :meth:`DistanceOracle.query_batch` answers
thousands of ``(u, v)`` pairs per call as pure vectorized gathers over four
aligned arrays (per-node cluster id, per-node center distance, and the two
``k × k`` quotient matrices) with zero per-query Python.  The scalar
:meth:`DistanceOracle.query` is a thin wrapper over a length-1 batch, pinned
bit-identical to the historical per-query implementation by the
frozen-reference tests.  :class:`~repro.serving.GraphService` builds its
serving plane directly on these arrays.

:func:`build_distance_oracle` takes the decomposition as an argument and
never runs one itself; :meth:`repro.serving.GraphService.build` decomposes
through :class:`~repro.core.pipeline.DecompositionPipeline` and hands the
clustering over.  Both matrices come from one
:func:`~repro.core.quotient.build_quotient_graph` call: the upper matrix is
the APSP of the weighted quotient, and the lower one that of the same CSR
without weights.  Weighted graphs are served through the §7 weighted
decomposition (CLUSTER on the weighted graph): the upper
matrix holds genuine center-to-center path lengths (weighted growth distances
plus edge weights) and the hop lower bound is scaled by the minimum edge
weight (every cluster crossing costs at least one edge, hence at least
``w_min``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.core.clustering import Clustering
from repro.core.quotient import build_quotient_graph, quotient_apsp
from repro.graph.csr import CSRGraph
from repro.utils.validation import check_node_batch, check_node_index

__all__ = [
    "DistanceOracle",
    "build_distance_oracle",
    "default_oracle_tau",
]


def default_oracle_tau(num_nodes: int) -> int:
    """The oracle's default granularity ``⌈sqrt(n) / log² n⌉``.

    Keeps the number of clusters ``O(sqrt(n))`` so the quotient APSP matrices
    stay linear in the graph size.
    """
    n = num_nodes
    return max(1, int(math.ceil(math.sqrt(n) / max(1.0, math.log2(max(2, n)) ** 2))))


@dataclass
class DistanceOracle:
    """Approximate distance oracle built on a clustering.

    Space usage: ``O(n)`` for the per-node cluster id / center distance plus
    ``O(k²)`` for the quotient APSP matrices, which is ``O(n)`` overall for
    ``k = O(sqrt(n))`` clusters.

    Attributes
    ----------
    clustering:
        The decomposition the oracle answers from; a weighted one (with
        ``weighted_distance``) makes the oracle bound weighted distances.
    upper_matrix / lower_matrix:
        ``k × k`` float64 APSP matrices of the weighted and unweighted
        quotient graphs (the weighted-metric oracle scales the hop lower
        matrix by the minimum edge weight at build time).
    same_cluster_lower:
        Lower bound served for distinct same-cluster nodes: ``1.0`` in the
        hop metric, the minimum edge weight in the weighted metric.
    """

    clustering: Clustering
    upper_matrix: np.ndarray
    lower_matrix: np.ndarray
    same_cluster_lower: float = 1.0
    #: Aligned serving arrays derived from ``clustering`` at construction:
    #: per-node cluster id and per-node (float64) distance to the own center.
    assignment: np.ndarray = field(init=False, repr=False)
    center_distance: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        clustering = self.clustering
        self.assignment = np.ascontiguousarray(clustering.assignment, dtype=np.int64)
        distance = clustering.weighted_distance if clustering.is_weighted else clustering.distance
        self.center_distance = np.ascontiguousarray(distance, dtype=np.float64)

    @property
    def num_nodes(self) -> int:
        return int(self.clustering.num_nodes)

    @property
    def num_clusters(self) -> int:
        return self.clustering.num_clusters

    @property
    def is_weighted(self) -> bool:
        """Whether the oracle bounds weighted (rather than hop) distances."""
        return self.clustering.is_weighted

    @property
    def space_entries(self) -> int:
        """Number of stored matrix entries plus per-node words (space accounting)."""
        return int(self.upper_matrix.size + self.lower_matrix.size + 2 * self.clustering.num_nodes)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query_batch(self, us, vs) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(lower_bounds, upper_bounds)`` for aligned id arrays.

        ``us`` and ``vs`` are equal-length 1-d integer arrays; the return
        value is a pair of aligned ``float64`` arrays bounding
        ``dist_G(us[i], vs[i])`` for every ``i``, by :meth:`bounds`.
        """
        n = self.num_nodes
        us = check_node_batch(us, n, "us")
        vs = check_node_batch(vs, n, "vs")
        if us.shape != vs.shape:
            raise ValueError(
                f"us and vs must have the same length, got {us.size} and {vs.size}"
            )
        return self.bounds(
            self.assignment[us],
            self.assignment[vs],
            self.center_distance[us],
            self.center_distance[vs],
            us == vs,
        )

    def bounds(self, cu, cv, du, dv, identical) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` distance bounds from gathered endpoint data.

        ``cu``/``cv`` are the endpoints' cluster ids, ``du``/``dv`` their
        center distances and ``identical`` marks ``u == v``.  Semantics per
        pair (kept bit-identical to the historical scalar implementation):

        * ``u == v`` → ``(0, 0)``;
        * same cluster → lower :attr:`same_cluster_lower`, upper
          ``dist(u, c) + dist(v, c)`` (or ``same_cluster_lower`` when both
          are centers of a degenerate cluster);
        * different clusters → the quotient lower bound and the
          route-through-centers upper bound.

        Both matrices are read through one flat index ``cu·k + cv``.
        """
        flat = cu * self.num_clusters + cv
        upper = du + np.take(self.upper_matrix, flat)
        upper += dv
        lower = np.take(self.lower_matrix, flat)
        # Same-cluster pairs (u == v among them) are overwritten in place.
        same = np.flatnonzero(cu == cv)
        via_own_center = du[same] + dv[same]
        upper[same] = np.where(via_own_center > 0, via_own_center, self.same_cluster_lower)
        lower[same] = self.same_cluster_lower
        same_node = same[identical[same]]
        upper[same_node] = 0.0
        lower[same_node] = 0.0
        return lower, upper

    def query(self, u: int, v: int) -> Tuple[float, float]:
        """Scalar ``(lower_bound, upper_bound)`` on ``dist_G(u, v)``.

        A thin wrapper over a length-1 :meth:`query_batch`; bit-identical to
        the historical per-query implementation (pinned by the
        frozen-reference tests in ``tests/core/test_oracle.py``).
        """
        n = self.clustering.num_nodes
        ui = check_node_index(u, n, "u")
        vi = check_node_index(v, n, "v")
        lower, upper = self.query_batch(
            np.asarray([ui], dtype=np.int64), np.asarray([vi], dtype=np.int64)
        )
        return float(lower[0]), float(upper[0])


def build_distance_oracle(graph: CSRGraph, clustering: Clustering) -> DistanceOracle:
    """Build a :class:`DistanceOracle` on a decomposition of ``graph``.

    The oracle never decomposes: ``clustering`` comes from the one
    decomposition path, :class:`~repro.core.pipeline.DecompositionPipeline`
    (as :meth:`repro.serving.GraphService.build` runs it), or from any
    decomposition the caller already holds.  It must be weighted exactly when
    the graph is; :func:`default_oracle_tau` gives the granularity that keeps
    the APSP matrices linear in the graph size.
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    weighted = graph.is_weighted
    if clustering.num_nodes != n:
        raise ValueError("graph and clustering refer to different node sets")
    if clustering.is_weighted != weighted:
        raise ValueError(
            "graph/clustering metric mismatch: a weighted graph needs a "
            "weighted clustering and an unweighted graph an unweighted one"
        )
    # One build: the hop quotient is the weighted one's CSR without weights.
    upper_quotient = build_quotient_graph(graph, clustering, weighted=True)
    upper = quotient_apsp(upper_quotient)
    lower = quotient_apsp(upper_quotient.unweighted())
    # Every cluster crossing costs at least one edge, so the hop lower bound
    # transfers to the weighted metric scaled by w_min.
    scale = float(graph.weights.min()) if weighted and graph.weights.size else 1.0
    if scale != 1.0:
        lower = lower * scale
    return DistanceOracle(
        clustering=clustering,
        upper_matrix=upper,
        lower_matrix=lower,
        same_cluster_lower=scale,
    )
