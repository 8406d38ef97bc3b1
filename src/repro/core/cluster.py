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

The module also owns CLUSTER's parameter rules (threshold, selection
probability, :func:`default_tau`) and :func:`search_granularity`, the one
trial loop behind CLUSTER's τ search (:func:`cluster_with_target_clusters`)
and MPX's β search (:func:`repro.baselines.mpx.mpx_with_target_clusters`).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.core.clustering import Clustering
from repro.core.growth_engine import GrowthEngine
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng, random_subset_mask

__all__ = [
    "cluster",
    "cluster_with_target_clusters",
    "default_tau",
    "search_granularity",
    "selection_probability",
    "single_batch_decomposition",
    "uncovered_threshold",
]

# The granularity search accepts a cluster count within ±35% of the target,
# and otherwise returns the closest of this many trials.
_TOLERANCE = 0.35
_MAX_TRIALS = 12


# ---------------------------------------------------------------------------
# CLUSTER's parameters (Algorithm 1)
# ---------------------------------------------------------------------------
def _log_n(num_nodes: int) -> float:
    """``log₂ n`` guarded against degenerate sizes (paper uses base-2 logs)."""
    return math.log2(max(2, num_nodes))


def uncovered_threshold(num_nodes: int, tau: int) -> float:
    """The ``8 τ log n`` stopping threshold of Algorithm 1's while loop."""
    return 8.0 * tau * _log_n(num_nodes)


def selection_probability(num_nodes: int, tau: int, num_uncovered: int) -> float:
    """The ``4 τ log n / |V - V'|`` center-selection probability (clamped to 1)."""
    if num_uncovered <= 0:
        return 0.0
    return min(1.0, 4.0 * tau * _log_n(num_nodes) / num_uncovered)


def _theorem1_tau(num_nodes: int, clusters: float) -> int:
    """The τ that Theorem 1's ``#clusters = O(τ log² n)`` gives about
    ``clusters`` clusters, reading the constant as 1/4 (at least 1)."""
    return max(1, int(round(clusters / max(1.0, 0.25 * _log_n(num_nodes) ** 2))))


def default_tau(graph: CSRGraph) -> int:
    """Pick τ so the quotient graph fits in a single reducer (Theorem 4).

    Theorem 4 sets ``τ = Θ(n^{ε'} / log⁴ n)`` so that the quotient graph has
    ``O(n^{ε'})`` nodes and can be processed by one reducer with
    ``M_L = Θ(n^ε)`` local memory; we aim for ``≈ sqrt(n)`` clusters, the
    Theorem-1 guess the granularity search would start from.
    """
    return _theorem1_tau(graph.num_nodes, math.sqrt(graph.num_nodes))


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
    max_iterations = int(4 * _log_n(n)) + 8
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


def search_granularity(
    graph: CSRGraph,
    target: int,
    decompose: Callable[..., Clustering],
    start: float,
    step: Callable[[float, float], float],
    *,
    seed: SeedLike,
    at_least: bool = False,
    floor: Optional[Callable[[Clustering], bool]] = None,
) -> Clustering:
    """Tune a granularity parameter until ``decompose`` gives about ``target`` clusters.

    Neither CLUSTER nor MPX can fix the number of clusters a priori (it is a
    random variable), so the paper's experiments (§6.1) tune the parameter
    until the count is "close enough" to the target.  Each trial runs
    ``decompose(graph, parameter, seed=rng)`` on one shared random stream,
    the first with ``start``.  A count within ``(1 ± 0.35) * target`` is
    returned; otherwise the next parameter is ``step(parameter, target /
    max(1, count))``, and after 12 trials the closest one is returned.

    Parameters
    ----------
    at_least:
        Only a count of at least ``target`` lands, and a count below it
        ranks one whole target further away than it is.
    floor:
        ``floor(result)`` is true when no parameter gives fewer clusters
        than ``result``; the search stops after a trial above the target for
        which it holds.
    """
    if target < 1:
        raise ValueError("target_clusters must be >= 1")
    if graph.num_nodes == 0:
        raise ValueError("graph must be non-empty")
    rng = as_rng(seed)
    parameter = start
    best, best_gap = None, math.inf
    for _ in range(_MAX_TRIALS):
        result = decompose(graph, parameter, seed=rng)
        count = result.num_clusters
        below = at_least and count < target
        gap = abs(count - target) / target
        if below:
            gap += 1.0
        if gap < best_gap:
            best, best_gap = result, gap
        if not below and (1 - _TOLERANCE) * target <= count <= (1 + _TOLERANCE) * target:
            return result
        if floor is not None and count > target and floor(result):
            break
        parameter = step(parameter, target / max(1, count))
    return best


def cluster_with_target_clusters(
    graph: CSRGraph,
    target_clusters: int,
    *,
    seed: SeedLike = None,
) -> Clustering:
    """Run CLUSTER with τ tuned so the number of clusters lands near a target.

    :func:`search_granularity` with CLUSTER's rules: the first τ inverts
    Theorem 1's ``#clusters = O(τ log² n)`` bound, and each miss multiplies τ
    by ``target / count`` clamped to ``[1/4, 4]`` and rounds it to an integer
    of at least 1; a τ of ``n`` or more falls back to ``n // 2`` (or 1).

    Parameters
    ----------
    target_clusters:
        Desired number of clusters (e.g. ``n / 1000`` for small-diameter
        graphs in Table 2).
    """
    n = graph.num_nodes

    def step(tau: int, ratio: float) -> int:
        # Dampened multiplicative update; τ moves in the direction of the miss.
        tau = max(1, int(round(tau * min(4.0, max(0.25, ratio)))))
        return tau if tau < n else n // 2 or 1

    return search_granularity(graph, target_clusters, cluster, _theorem1_tau(n, target_clusters), step, seed=seed)
