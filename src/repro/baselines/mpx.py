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
practice (and in the paper's own Spark reimplementation): it is the shared
:class:`~repro.core.growth_engine.GrowthEngine` driven by a
:class:`~repro.core.growth_engine.ShiftActivationSchedule` — round ``t``
activates (as singleton clusters) all still-uncovered nodes whose start time
``δ_max − δ_u`` has arrived, then every active cluster grows one hop,
disjointly.  Contested nodes go to the first claimant in the adjacency scan
(the default, matching the historical behaviour of this module); pass
``tie_break="shifted-start"`` to resolve them toward the cluster whose center
started earliest, the continuous-time MPX rule.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.clustering import Clustering
from repro.core.growth_engine import (
    GrowthEngine,
    ShiftActivationSchedule,
    ShiftedStartTieBreak,
)
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng

__all__ = ["mpx_decomposition", "mpx_with_target_clusters"]


def mpx_decomposition(
    graph: CSRGraph,
    beta: float,
    *,
    seed: SeedLike = None,
    tie_break: str = "arbitrary",
) -> Clustering:
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
    tie_break:
        ``"arbitrary"`` (default) resolves contested nodes toward the first
        claimant in the adjacency scan; ``"shifted-start"`` resolves them
        toward the cluster whose center has the earliest shifted start time
        (the continuous-time MPX semantics).

    Returns
    -------
    Clustering
        Disjoint decomposition; cluster centers are the activated nodes.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    rng = as_rng(seed)
    n = graph.num_nodes
    if n == 0:
        return GrowthEngine(graph).to_clustering(algorithm="mpx")

    shifts = rng.exponential(scale=1.0 / beta, size=n)
    delta_max = float(shifts.max())
    start_times = delta_max - shifts  # earliest time each node may start a cluster
    max_round = int(math.floor(delta_max)) + 1

    if tie_break == "arbitrary":
        policy = None
    elif tie_break == "shifted-start":
        policy = ShiftedStartTieBreak(start_times)
    else:
        raise ValueError(f"unknown MPX tie_break {tie_break!r}")
    engine = GrowthEngine(graph, tie_break=policy)
    engine.run(ShiftActivationSchedule(start_times, max_round))
    return engine.to_clustering(algorithm="mpx")


def mpx_with_target_clusters(
    graph: CSRGraph,
    target_clusters: int,
    *,
    seed: SeedLike = None,
    tolerance: float = 0.35,
    max_trials: int = 12,
    require_at_least_target: bool = False,
) -> Clustering:
    """Tune β so that MPX returns approximately ``target_clusters`` clusters.

    The paper's Table 2 protocol gives MPX "a slight advantage" by always
    letting it produce a comparable but *larger* number of clusters than
    CLUSTER; setting ``require_at_least_target=True`` reproduces that bias.
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
    for _ in range(max_trials):
        result = mpx_decomposition(graph, beta, seed=rng)
        count = result.num_clusters
        gap = abs(count - target_clusters) / target_clusters
        acceptable = (1 - tolerance) * target_clusters <= count <= (1 + tolerance) * target_clusters
        if require_at_least_target:
            acceptable = acceptable and count >= target_clusters
            effective_gap = gap if count >= target_clusters else gap + 1.0
        else:
            effective_gap = gap
        if effective_gap < best_gap:
            best, best_gap = result, effective_gap
        if acceptable:
            return result
        ratio = target_clusters / max(1, count)
        beta = beta * min(8.0, max(0.125, ratio))
    assert best is not None
    return best
