"""Frozen granularity searches: the reference the shared trial loop is pinned to.

These are the two trial loops that :func:`repro.core.cluster.
cluster_with_target_clusters` and :func:`repro.baselines.mpx.
mpx_with_target_clusters` ran before they shared
:func:`repro.core.cluster.search_granularity`, copied unchanged with their
``_TOLERANCE`` / ``_MAX_TRIALS`` constants, plus the ``default_tau`` formula
of the same period.  They never run in production; ``tests/core/
test_search_granularity.py`` requires the public searches to return the same
arrays and to leave the random stream where these loops leave it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.mpx import mpx_decomposition
from repro.core.cluster import cluster
from repro.core.clustering import Clustering
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng

# The granularity search accepts a cluster count within ±35% of the target,
# and otherwise returns the closest of this many CLUSTER runs.
_TOLERANCE = 0.35
_MAX_TRIALS = 12


def reference_default_tau(graph: CSRGraph) -> int:
    """The ``≈ sqrt(n)``-cluster τ of Theorem 4, with its small-n branch."""
    n = graph.num_nodes
    if n <= 2:
        return 1
    log_sq = math.log2(max(2, n)) ** 2
    return max(1, int(round(math.sqrt(n) / max(1.0, 0.25 * log_sq))))


def reference_cluster_with_target_clusters(
    graph: CSRGraph,
    target_clusters: int,
    *,
    seed: SeedLike = None,
) -> Clustering:
    """CLUSTER with τ tuned toward ``target_clusters`` (the copied loop)."""
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


def reference_mpx_with_target_clusters(
    graph: CSRGraph,
    target_clusters: int,
    *,
    seed: SeedLike = None,
    require_at_least_target: bool = False,
) -> Clustering:
    """MPX with β tuned toward ``target_clusters`` (the copied loop)."""
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
