"""Algorithm 1 of the paper, CLUSTER(τ), and the single-batch ablation.

CLUSTER partitions the node set into disjoint connected clusters by growing
clusters from *progressive batches* of centers:

* while more than ``8 τ log n`` nodes are uncovered,
* select every uncovered node as a new center independently with probability
  ``4 τ log n / |uncovered|``,
* grow all clusters (new and old) in parallel, disjointly, until at least half
  of the previously uncovered nodes become covered,
* finally, promote any leftover uncovered nodes to singleton clusters.

:func:`cluster` is that loop over the primitives of the shared
:class:`~repro.core.growth_engine.GrowthEngine`.  On a weighted graph the same
loop is the hop-bounded weighted decomposition of the paper's §7 outlook: a
growing step still extends every cluster by one hop (one parallel round), and
a contested node joins the cluster offering the smallest accumulated weighted
distance, so the hop radius controls the parallel depth while the weighted
radius stays controlled.

Theorem 1 shows the result has ``O(τ log² n)`` clusters and that the maximum
radius is within an ``O(log n)`` factor of the best radius achievable with
``τ`` clusters; Lemma 1 bounds the radius by ``O(⌈∆ / τ^{1/b}⌉ log n)`` for a
graph with diameter ∆ and doubling dimension b.

:func:`single_batch_decomposition` is the ablation's strawman without
progressive batches: every center is chosen up front and grown once.
"""

from __future__ import annotations

import math

from repro.core.clustering import Clustering
from repro.core.growth_engine import GrowthEngine, selection_probability, uncovered_threshold
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng, random_subset_mask

__all__ = [
    "cluster",
    "cluster_with_target_clusters",
    "single_batch_decomposition",
    "selection_probability",
    "uncovered_threshold",
]

# The granularity search accepts a cluster count within ±35% of the target,
# and otherwise returns the closest of this many CLUSTER runs.
_TOLERANCE = 0.35
_MAX_TRIALS = 12


def cluster(graph: CSRGraph, tau: int, *, seed: SeedLike = None) -> Clustering:
    """Run CLUSTER(τ) on ``graph`` and return the resulting decomposition.

    Parameters
    ----------
    graph:
        Undirected graph, optionally weighted (then the decomposition also
        records weighted growth distances).  The graph need not be connected:
        as observed in §3.2 of the paper, the algorithm remains correct for a
        graph with ``h`` components as long as τ ≥ h (otherwise some
        components simply end up covered by the final singleton promotion or
        by centers that happen to land there).
    tau:
        Granularity parameter (τ ≥ 1).  Larger τ ⇒ more clusters, smaller
        radius.
    seed:
        Randomness for center selection.

    Returns
    -------
    Clustering
        The decomposition with its per-iteration / per-step execution trace;
        :meth:`~repro.core.clustering.Clustering.validate` checks one.
    """
    if tau < 1:
        raise ValueError(f"tau must be a positive integer, got {tau}")
    rng = as_rng(seed)
    n = graph.num_nodes
    engine = GrowthEngine(graph)
    threshold = uncovered_threshold(n, tau)
    # Safety cap; the analysis needs only ⌈log(n / (8 τ log n))⌉ iterations.
    max_iterations = int(4 * math.log2(max(2, n))) + 8
    iteration = 0
    while engine.num_uncovered >= threshold and iteration < max_iterations:
        uncovered = engine.uncovered_nodes
        probability = selection_probability(n, tau, uncovered.size)
        selected = uncovered[random_subset_mask(uncovered.size, probability, rng)]
        if selected.size == 0 and engine.num_clusters == 0:
            # A (very unlikely) empty draw with no active cluster: force one
            # random center so the process makes progress.
            selected = rng.choice(uncovered, size=1)
        engine.mark()
        new_centers = engine.add_centers(selected).size
        steps = engine.grow_until(int(math.ceil(uncovered.size / 2.0)))
        engine.record_iteration(iteration, uncovered.size, new_centers, steps, probability)
        iteration += 1
    engine.cover_remaining_as_singletons()
    return engine.to_clustering("cluster")


def single_batch_decomposition(graph: CSRGraph, num_centers: int, *, seed: SeedLike = None) -> Clustering:
    """Ablation baseline: all centers chosen up front, then plain parallel growth.

    This is the "no progressive batches" strawman: a uniformly random set of
    ``num_centers`` centers grown disjointly until the graph is covered (any
    still-uncovered nodes — other components — become singletons).
    """
    if num_centers < 1:
        raise ValueError("num_centers must be >= 1")
    rng = as_rng(seed)
    n = graph.num_nodes
    centers = rng.choice(n, size=min(num_centers, n), replace=False)
    engine = GrowthEngine(graph)
    uncovered_before = engine.num_uncovered
    new_centers = engine.add_centers(centers).size
    steps = engine.grow_to_exhaustion()
    engine.record_iteration(0, uncovered_before, new_centers, steps)
    engine.cover_remaining_as_singletons()
    return engine.to_clustering("single-batch")


def cluster_with_target_clusters(
    graph: CSRGraph,
    target_clusters: int,
    *,
    seed: SeedLike = None,
) -> Clustering:
    """Run CLUSTER with τ tuned so the number of clusters lands near a target.

    Neither CLUSTER nor MPX can fix the number of clusters a priori (it is a
    random variable); the paper's experiments therefore tune the granularity
    parameter until the observed number of clusters is "close enough" to the
    desired decomposition granularity.  This helper performs that tuning with
    a multiplicative search on τ, mirroring the experimental protocol of §6.1:
    it inverts Theorem 1's ``#clusters = O(τ log² n)`` bound for the starting
    τ, then moves τ multiplicatively toward the target until the count lands
    within ``(1 ± 0.35) * target_clusters`` (or returns the closest attempt
    after 12 CLUSTER runs).

    Parameters
    ----------
    target_clusters:
        Desired number of clusters (e.g. ``n / 1000`` for small-diameter
        graphs in Table 2).
    """
    if target_clusters < 1:
        raise ValueError("target_clusters must be >= 1")
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    rng = as_rng(seed)
    log_sq = math.log2(max(2, n)) ** 2
    # Theorem 1: #clusters = O(τ log² n); start from the inversion and adjust.
    tau = max(1, int(round(target_clusters / max(1.0, 0.25 * log_sq))))
    best = None
    best_gap = float("inf")
    for _ in range(_MAX_TRIALS):
        result = cluster(graph, tau, seed=rng)
        count = result.num_clusters
        gap = abs(count - target_clusters) / target_clusters
        if gap < best_gap:
            best, best_gap = result, gap
        if (1 - _TOLERANCE) * target_clusters <= count <= (1 + _TOLERANCE) * target_clusters:
            return result
        ratio = target_clusters / max(1, count)
        # Dampened multiplicative update; τ moves in the direction of the miss.
        tau = max(1, int(round(tau * min(4.0, max(0.25, ratio)))))
        if tau >= n:
            tau = n // 2 or 1
    assert best is not None
    return best
