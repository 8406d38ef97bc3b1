"""Graph k-center approximation via CLUSTER (Section 3.1 / 3.2 of the paper).

The graph k-center problem asks for a set ``M`` of ``k`` nodes minimizing
``max_v dist(v, M)`` — in hops, or in summed edge weights on a weighted graph
(the paper's §7 outlook).  The paper's algorithm:

1. run CLUSTER(τ) with ``τ = Θ(k / log² n)`` so that, with high probability,
   at most ``k`` clusters are returned (Theorem 2);
2. if the decomposition still has more than ``k`` clusters (or, for
   disconnected graphs with ``h ≤ k = o(h log² n)`` components, when running
   CLUSTER(h)), merge clusters along a spanning forest of the quotient graph
   into ``k`` groups, exactly as in the proof of Theorem 2;
3. the returned centers are the cluster centers (one representative per
   merged group); the objective value is evaluated by a multi-source BFS from
   the centers (a multi-source Dijkstra on a weighted graph).

Theorem 2: the result is an ``O(log³ n)``-approximation with high
probability (for ``k = Ω(log² n)``).

Step 1 is :func:`repro.core.cluster.cluster`; step 3 is one
:func:`~repro.graph.kernels.frontier_expansion` (hops) or
:func:`~repro.graph.kernels.delta_stepping` (weighted) run from all centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Union

import numpy as np

from repro.core.cluster import cluster
from repro.core.clustering import Clustering
from repro.core.quotient import build_quotient_graph
from repro.graph import kernels
from repro.graph.components import num_connected_components
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_node_batch

__all__ = ["KCenterResult", "kcenter", "evaluate_centers", "merge_clusters_to_k"]


@dataclass(frozen=True)
class KCenterResult:
    """A k-center solution.

    Attributes
    ----------
    centers:
        int64 array of at most ``k`` center node ids.
    assignment:
        int64 array assigning every node to the index (into ``centers``) of
        its nearest center.
    distance:
        Distances to the assigned (nearest) center: int64 hops, or float64
        weighted distances on a weighted graph.
    radius:
        The objective value ``max_v dist(v, centers)``.
    algorithm:
        Producing algorithm ("cluster", "gonzalez", "random", ...).
    """

    centers: np.ndarray
    assignment: np.ndarray
    distance: np.ndarray
    radius: Union[int, float]
    algorithm: str = "cluster"

    @property
    def k(self) -> int:
        return int(self.centers.size)


def evaluate_centers(graph: CSRGraph, centers: "np.ndarray | List[int]", algorithm: str = "custom") -> KCenterResult:
    """Evaluate an arbitrary center set: nearest-center assignment and radius.

    ``assignment[v]`` is the index, in sorted ``centers``, of the source whose
    multi-source shortest-path tree holds ``v``: one
    :func:`~repro.graph.kernels.frontier_expansion` in hops, or one
    :func:`~repro.graph.kernels.delta_stepping` on a weighted graph.
    Unreachable nodes (disconnected graphs whose component contains no
    center) are assigned to the first center.  They make the radius
    infinite: ``inf`` on a weighted graph, and in hops ``graph.num_nodes`` (a
    value larger than any finite eccentricity, keeping the arithmetic
    integral), which is also their reported distance.
    """
    center_array = np.unique(check_node_batch(centers, graph.num_nodes, "centers"))
    if center_array.size == 0:
        raise ValueError("at least one center is required")
    if graph.is_weighted:
        distances, owner = kernels.delta_stepping(graph.indptr, graph.indices, graph.weights, center_array)
        radius = float(distances.max())
    else:
        distances, owner, _ = kernels.frontier_expansion(
            graph.indptr, graph.indices, center_array, degrees=graph.degrees
        )
        unreachable = distances < 0
        radius = int(distances.max())
        if unreachable.any():
            radius = graph.num_nodes
            distances[unreachable] = graph.num_nodes
    return KCenterResult(
        centers=center_array,
        assignment=np.searchsorted(center_array, owner),  # unreachable (-1) -> 0
        distance=distances,
        radius=radius,
        algorithm=algorithm,
    )


def merge_clusters_to_k(
    graph: CSRGraph, clustering: Clustering, k: int, *, seed: SeedLike = None
) -> np.ndarray:
    """Merge the clusters of ``clustering`` into at most ``k`` groups.

    Implements the spanning-tree merging argument in the proof of Theorem 2:
    build a spanning forest of the quotient graph, then cut it into at most
    ``k`` connected subtrees of balanced size (post-order accumulation), and
    return one representative center per subtree.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w = clustering.num_clusters
    if w <= k:
        return clustering.centers.copy()
    quotient = build_quotient_graph(graph, clustering, weighted=False)
    parent = np.full(w, -1, dtype=np.int64)
    order: List[int] = []
    visited = np.zeros(w, dtype=bool)
    # BFS spanning forest of the quotient graph (handles disconnected quotients).
    for root in range(w):
        if visited[root]:
            continue
        visited[root] = True
        queue = [root]
        while queue:
            u = queue.pop()
            order.append(u)
            for v in quotient.neighbors(u):
                vi = int(v)
                if not visited[vi]:
                    visited[vi] = True
                    parent[vi] = u
                    queue.append(vi)
    # Cut the forest into groups of at most ceil(w / k) clusters via post-order
    # accumulation: children are merged into their parent until the budget is
    # reached, at which point the subtree is "cut off" as one group.
    budget = math.ceil(w / k)
    group = -np.ones(w, dtype=np.int64)
    subtree_size = np.ones(w, dtype=np.int64)
    next_group = 0
    for u in reversed(order):
        if subtree_size[u] >= budget or parent[u] < 0:
            group[u] = next_group
            next_group += 1
        else:
            subtree_size[parent[u]] += subtree_size[u]
    # Propagate group labels down the tree (nodes not cut inherit their parent's group).
    for u in order:
        if group[u] < 0:
            group[u] = group[parent[u]]
    representatives = []
    represented_clusters = set()
    seen = set()
    for u in order:
        g = int(group[u])
        if g not in seen:
            seen.add(g)
            representatives.append(int(clustering.centers[u]))
            represented_clusters.add(u)
    reps = np.asarray(representatives, dtype=np.int64)
    if reps.size > k:
        rng = as_rng(seed)
        reps = rng.choice(reps, size=k, replace=False)
    elif reps.size < k:
        # Star-shaped quotient trees can collapse into fewer than k groups
        # (every leaf subtree stays below the budget).  Spend the remaining
        # center budget on the centers of the largest unrepresented clusters —
        # extra centers can only improve the k-center objective.
        sizes = clustering.cluster_sizes()
        unused = [c for c in np.argsort(sizes)[::-1] if c not in represented_clusters]
        extra = [int(clustering.centers[c]) for c in unused[: k - reps.size]]
        reps = np.concatenate([reps, np.asarray(extra, dtype=np.int64)])
    return np.unique(reps)


def kcenter(graph: CSRGraph, k: int, *, seed: SeedLike = None) -> KCenterResult:
    """Approximate graph k-center via CLUSTER (Theorem 2 / Section 3.2).

    Parameters
    ----------
    graph:
        Undirected graph, optionally weighted (need not be connected; ``k``
        must be at least the number of connected components for a finite
        radius).
    k:
        Number of centers.  CLUSTER runs at ``τ = max(1, round(k / log² n))``
        (Theorem 2), or at the number of components ``h`` when
        ``k < h log² n`` (the §3.2 recipe).

    Returns
    -------
    KCenterResult
        The solution with at most ``k`` centers; its ``radius`` is the
        evaluated objective value.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    rng = as_rng(seed)
    if k >= n:
        return evaluate_centers(graph, np.arange(n, dtype=np.int64), algorithm="cluster")

    log_sq = math.log2(max(2, n)) ** 2
    h = num_connected_components(graph)
    if h > 1 and k < h * log_sq:
        # §3.2: run CLUSTER(h) and merge the O(h log² n) clusters down to k.
        tau = max(1, h)
    else:
        tau = max(1, int(round(k / log_sq)))
    clustering = cluster(graph, tau, seed=rng)
    centers = merge_clusters_to_k(graph, clustering, k, seed=rng)
    return evaluate_centers(graph, centers, algorithm="cluster")
