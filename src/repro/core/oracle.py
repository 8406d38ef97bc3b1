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

Weighted graphs are served through the §7 weighted decomposition: the upper
matrix holds genuine center-to-center path lengths
(:func:`repro.weighted.applications.build_weighted_quotient`) and the hop
lower bound is scaled by the minimum edge weight (every cluster crossing
costs at least one edge, hence at least ``w_min``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.cluster import cluster
from repro.core.cluster2 import cluster2
from repro.core.quotient import build_quotient_graph, quotient_apsp
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_node_index

__all__ = [
    "DistanceOracle",
    "build_distance_oracle",
    "check_node_batch",
    "default_oracle_tau",
]


def default_oracle_tau(num_nodes: int) -> int:
    """The oracle's default granularity ``⌈sqrt(n) / log² n⌉``.

    Keeps the number of clusters ``O(sqrt(n))`` so the quotient APSP matrices
    stay linear in the graph size.
    """
    n = num_nodes
    return max(1, int(math.ceil(math.sqrt(n) / max(1.0, math.log2(max(2, n)) ** 2))))


def check_node_batch(nodes, num_nodes: int, name: str = "nodes") -> np.ndarray:
    """Validate a 1-d integer array of node ids, returning it as ``int64``.

    Raises ``ValueError`` for non-1-d input, ``TypeError`` for non-integer
    dtypes, and ``IndexError`` (naming the first offender, mirroring
    :func:`repro.utils.validation.check_node_index`) for out-of-range ids.
    """
    array = np.asarray(nodes)
    if array.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array of node ids, got shape {array.shape}")
    if array.size == 0:
        return array.astype(np.int64)
    if not np.issubdtype(array.dtype, np.integer):
        raise TypeError(f"{name} must be an integer array, got dtype {array.dtype}")
    array = array.astype(np.int64, copy=False)
    bad = (array < 0) | (array >= num_nodes)
    if np.any(bad):
        offender = int(array[np.argmax(bad)])
        raise IndexError(
            f"{name} {offender} out of range for graph with {num_nodes} nodes"
        )
    return array


@dataclass
class DistanceOracle:
    """Approximate distance oracle built on a clustering.

    Space usage: ``O(n)`` for the per-node cluster id / center distance plus
    ``O(k²)`` for the quotient APSP matrices, which is ``O(n)`` overall for
    ``k = O(sqrt(n))`` clusters.

    Attributes
    ----------
    clustering:
        The decomposition the oracle answers from — a
        :class:`~repro.core.clustering.Clustering` (hop metric) or a
        :class:`~repro.weighted.decomposition.WeightedClustering` (weighted
        metric; detected by its ``weighted_distance`` array).
    upper_matrix / lower_matrix:
        ``k × k`` float64 APSP matrices of the weighted and unweighted
        quotient graphs (the weighted-metric oracle scales the hop lower
        matrix by the minimum edge weight at build time).
    same_cluster_lower:
        Lower bound served for distinct same-cluster nodes: ``1.0`` in the
        hop metric, the minimum edge weight in the weighted metric.
    """

    clustering: object
    upper_matrix: np.ndarray
    lower_matrix: np.ndarray
    same_cluster_lower: float = 1.0
    #: Aligned serving arrays derived from ``clustering`` at construction:
    #: per-node cluster id and per-node (float64) distance to the own center.
    assignment: np.ndarray = field(init=False, repr=False)
    center_distance: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.assignment = np.ascontiguousarray(self.clustering.assignment, dtype=np.int64)
        distance = getattr(self.clustering, "weighted_distance", None)
        if distance is None:
            distance = self.clustering.distance
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
        return getattr(self.clustering, "weighted_distance", None) is not None

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
        ``dist_G(us[i], vs[i])`` for every ``i``.  Semantics per pair (kept
        bit-identical to the historical scalar implementation):

        * ``u == v`` → ``(0, 0)``;
        * same cluster → lower :attr:`same_cluster_lower`, upper
          ``dist(u, c) + dist(v, c)`` (or ``same_cluster_lower`` when both
          are centers of a degenerate cluster);
        * different clusters → the quotient lower bound and the
          route-through-centers upper bound.
        """
        n = self.num_nodes
        us = check_node_batch(us, n, "us")
        vs = check_node_batch(vs, n, "vs")
        if us.shape != vs.shape:
            raise ValueError(
                f"us and vs must have the same length, got {us.size} and {vs.size}"
            )
        if us.size == 0:
            empty = np.zeros(0, dtype=np.float64)
            return empty, empty.copy()
        cu = self.assignment[us]
        cv = self.assignment[vs]
        du = self.center_distance[us]
        dv = self.center_distance[vs]
        through_centers = du + self.upper_matrix[cu, cv] + dv
        via_own_center = du + dv
        same = cu == cv
        upper = np.where(
            same,
            np.where(via_own_center > 0, via_own_center, self.same_cluster_lower),
            through_centers,
        )
        lower = np.where(same, self.same_cluster_lower, self.lower_matrix[cu, cv])
        identical = us == vs
        if np.any(identical):
            lower[identical] = 0.0
            upper[identical] = 0.0
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


def build_distance_oracle(
    graph: CSRGraph,
    *,
    tau: Optional[int] = None,
    seed: SeedLike = None,
    use_cluster2: bool = True,
    clustering=None,
) -> DistanceOracle:
    """Build a :class:`DistanceOracle` for a connected graph.

    Parameters
    ----------
    tau:
        Decomposition granularity; defaults to :func:`default_oracle_tau` so
        the number of clusters is ``O(sqrt(n))`` and the APSP matrices stay
        linear in the graph size.  Ignored when ``clustering`` is given.
    use_cluster2:
        Use CLUSTER2 (the variant with the Theorem 3 path-intersection
        guarantee); CLUSTER alone still yields valid bounds, just without the
        polylog approximation guarantee.  Ignored for weighted graphs (which
        use the §7 weighted decomposition) and when ``clustering`` is given.
    clustering:
        A precomputed decomposition to build on (e.g. from
        :meth:`repro.core.pipeline.DecompositionPipeline.decompose`), instead
        of re-running the decomposition here: weighted graphs require a
        :class:`~repro.weighted.decomposition.WeightedClustering`, unweighted
        graphs a plain :class:`~repro.core.clustering.Clustering`.
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    weighted = graph.is_weighted
    if clustering is not None:
        if clustering.num_nodes != n:
            raise ValueError("graph and clustering refer to different node sets")
        clustering_weighted = getattr(clustering, "weighted_distance", None) is not None
        if clustering_weighted != weighted:
            raise ValueError(
                "graph/clustering metric mismatch: a weighted graph needs a "
                "WeightedClustering and an unweighted graph a plain Clustering"
            )
    else:
        rng = as_rng(seed)
        if tau is None:
            tau = default_oracle_tau(n)
        if weighted:
            from repro.weighted.decomposition import weighted_cluster

            clustering = weighted_cluster(graph, tau, seed=rng)
        elif use_cluster2:
            clustering = cluster2(graph, tau, seed=rng).clustering
        else:
            clustering = cluster(graph, tau, seed=rng)
    if weighted:
        from repro.weighted.applications import build_weighted_quotient

        upper_quotient = build_weighted_quotient(graph, clustering)
        # Every cluster crossing costs at least one edge, so the hop lower
        # bound transfers to the weighted metric scaled by w_min.
        scale = float(graph.weights.min()) if graph.weights.size else 1.0
    else:
        upper_quotient = build_quotient_graph(graph, clustering, weighted=True)
        scale = 1.0
    hop_quotient = build_quotient_graph(graph, clustering, weighted=False)
    upper = quotient_apsp(upper_quotient)
    lower = quotient_apsp(hop_quotient)
    if scale != 1.0:
        lower = lower * scale
    return DistanceOracle(
        clustering=clustering,
        upper_matrix=upper,
        lower_matrix=lower,
        same_cluster_lower=scale,
    )
