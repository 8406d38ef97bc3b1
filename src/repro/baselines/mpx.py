"""The MPX decomposition of Miller, Peng and Xu (SPAA 2013) — baseline.

MPX assigns every node ``u`` an independent random shift ``δ_u ~ Exp(β)`` and
grows a cluster centered at ``u`` starting at time ``δ_max − δ_u`` (unless
``u`` is already covered by then).  Equivalently, every node ``v`` joins the
cluster of the center ``u`` minimizing ``dist(u, v) − δ_u``.  The authors
show the clusters have radius ``O(log n / β)`` w.h.p. while only an
``O(β m)`` expected fraction of the edges crosses clusters.

This is the decomposition strategy the paper compares against in Table 2: it
controls the *number of inter-cluster edges* well, but — unlike CLUSTER — it
does not minimize the maximum radius for a given number of clusters, which is
exactly what the experiments demonstrate.

The implementation follows the level-synchronous integer-time variant used in
practice (and in the paper's own Spark reimplementation): a loop over the
shared :class:`~repro.core.growth_engine.GrowthEngine` in which round ``t``
activates (as singleton clusters) all still-uncovered nodes whose start time
``δ_max − δ_u`` falls in ``[t, t + 1)``, then every active cluster grows one
hop, disjointly.  Contested nodes go to the first claimant in the adjacency
scan.  A round in which no cluster can grow and no node starts changes
nothing, so the loop skips it: on a disconnected graph the clusters of a
finished component wait for the next start round instead of stepping
through ``O(log n / β)`` idle rounds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.clustering import Clustering
from repro.core.growth_engine import GrowthEngine
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng

__all__ = ["mpx_decomposition", "mpx_with_target_clusters"]

# The β search accepts a cluster count within ±35% of the target, and
# otherwise returns the closest of this many MPX runs.
_TOLERANCE = 0.35
_MAX_TRIALS = 12


def mpx_decomposition(graph: CSRGraph, beta: float, *, seed: SeedLike = None) -> Clustering:
    """Run the MPX random-shift decomposition with parameter ``beta``.

    Parameters
    ----------
    graph:
        Unweighted undirected graph.
    beta:
        Rate of the exponential shift distribution.  Larger β ⇒ smaller
        shifts ⇒ more clusters of smaller radius.
    seed:
        Randomness for the shifts.

    Returns
    -------
    Clustering
        Disjoint decomposition; cluster centers are the activated nodes.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    rng = as_rng(seed)
    n = graph.num_nodes
    engine = GrowthEngine(graph)
    if n == 0:
        return engine.to_clustering("mpx")

    shifts = rng.exponential(scale=1.0 / beta, size=n)
    # Node u may start its own cluster in integer round ⌊δ_max − δ_u⌋.
    start_round = np.floor(shifts.max() - shifts).astype(np.int64)
    by_round = np.argsort(start_round)
    sorted_rounds = start_round[by_round]

    t = 0
    while engine.num_uncovered:
        uncovered_before = engine.num_uncovered
        lo, hi = np.searchsorted(sorted_rounds, (t, t + 1))
        new_centers = engine.add_centers(by_round[lo:hi]).size
        if engine.frontier.size == 0:
            # Nothing can grow and nothing started: skip to the next round in
            # which a node starts (every uncovered node starts after t).
            t = int(sorted_rounds[hi])
            continue
        engine.grow_step()
        engine.record_iteration(t, uncovered_before, new_centers, 1)
        t += 1
    return engine.to_clustering("mpx")


def mpx_with_target_clusters(
    graph: CSRGraph,
    target_clusters: int,
    *,
    seed: SeedLike = None,
    require_at_least_target: bool = False,
) -> Clustering:
    """Tune β so that MPX returns approximately ``target_clusters`` clusters
    (within ±35%, or the closest of 12 runs).

    The paper's Table 2 protocol gives MPX "a slight advantage" by always
    letting it produce a comparable but *larger* number of clusters than
    CLUSTER; setting ``require_at_least_target=True`` reproduces that bias.

    No decomposition has fewer clusters than the graph has components, so
    the search stops at the first trial above the target in which no arc
    joins two clusters (every cluster is a whole component): that trial is
    the closest any β can get.
    """
    if target_clusters < 1:
        raise ValueError("target_clusters must be >= 1")
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    rng = as_rng(seed)
    # Expected number of activated centers grows with β; start from the
    # heuristic that roughly a fraction β/(β+1)… of nodes become centers and
    # search multiplicatively.
    beta = max(1e-6, target_clusters / max(1, n))
    best: Optional[Clustering] = None
    best_gap = float("inf")
    for _ in range(_MAX_TRIALS):
        result = mpx_decomposition(graph, beta, seed=rng)
        count = result.num_clusters
        gap = abs(count - target_clusters) / target_clusters
        acceptable = (1 - _TOLERANCE) * target_clusters <= count <= (1 + _TOLERANCE) * target_clusters
        if require_at_least_target:
            acceptable = acceptable and count >= target_clusters
            effective_gap = gap if count >= target_clusters else gap + 1.0
        else:
            effective_gap = gap
        if effective_gap < best_gap:
            best, best_gap = result, effective_gap
        if acceptable:
            return result
        if count > target_clusters and not np.any(
            result.assignment[graph.indices] != np.repeat(result.assignment, graph.degrees)
        ):
            break  # every cluster is a whole component: no β gives fewer
        ratio = target_clusters / max(1, count)
        beta = beta * min(8.0, max(0.125, ratio))
    assert best is not None
    return best
