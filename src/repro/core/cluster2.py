"""Algorithm 2 of the paper: CLUSTER2(τ).

CLUSTER2 refines CLUSTER for the diameter-approximation application: it first
runs CLUSTER(τ) to learn the maximum radius ``R_ALG`` achievable at that
granularity, then rebuilds the decomposition from scratch over ``log n``
iterations.  In iteration ``i`` every uncovered node becomes a new center
independently with probability ``2^i / n`` and all active clusters grow for
exactly ``2 R_ALG`` steps; the last iteration selects every uncovered node,
so the graph ends fully covered.  Both phases are loops over the shared
:class:`~repro.core.growth_engine.GrowthEngine`.

The smooth (geometric) growth of the selection probability together with the
fixed lower bound on the number of growing steps per iteration is what makes
Theorem 3 work: every shortest path of G intersects only
``O(⌈|π| / R_ALG⌉ log² n)`` clusters, so the quotient-graph diameter is a
faithful (polylog-factor) proxy for the true diameter.

Lemma 2: the result has ``O(τ log⁴ n)`` clusters of radius at most
``2 R_ALG log n``, with high probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.cluster import cluster
from repro.core.clustering import Clustering
from repro.core.growth_engine import GrowthEngine
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng, random_subset_mask

__all__ = ["cluster2", "Cluster2Result"]


@dataclass(frozen=True)
class Cluster2Result:
    """Output of CLUSTER2: the refined clustering plus the pilot CLUSTER run.

    Attributes
    ----------
    clustering:
        The decomposition produced by the ``log n`` refinement iterations.
    pilot:
        The CLUSTER(τ) decomposition used to estimate ``R_ALG``.
    r_alg:
        The maximum radius of the pilot decomposition (the per-iteration
        growth budget is ``2 * r_alg``).
    """

    clustering: Clustering
    pilot: Clustering
    r_alg: int

    @property
    def max_radius(self) -> int:
        """Maximum radius of the refined decomposition (``R_ALG2`` in the paper)."""
        return self.clustering.max_radius

    @property
    def num_clusters(self) -> int:
        return self.clustering.num_clusters


def cluster2(
    graph: CSRGraph,
    tau: int,
    *,
    seed: SeedLike = None,
    pilot: Optional[Clustering] = None,
) -> Cluster2Result:
    """Run CLUSTER2(τ) on ``graph``.

    Parameters
    ----------
    graph:
        Unweighted undirected graph.
    tau:
        Granularity parameter passed to the pilot CLUSTER run.
    seed:
        Randomness for both the pilot run and the refinement iterations.
    pilot:
        Optionally reuse an existing CLUSTER(τ) result instead of running the
        pilot again (the experiments of §6.2 use this "simplified version").

    Returns
    -------
    Cluster2Result
    """
    if tau < 1:
        raise ValueError(f"tau must be a positive integer, got {tau}")
    rng = as_rng(seed)
    if pilot is None:
        pilot = cluster(graph, tau, seed=rng)
    r_alg = pilot.max_radius
    growth_budget = max(1, 2 * r_alg)

    n = graph.num_nodes
    engine = GrowthEngine(graph)
    num_iterations = max(1, int(math.ceil(math.log2(max(2, n)))))
    for iteration in range(1, num_iterations + 1):
        if engine.num_uncovered == 0:
            break
        # The paper's 2^i / n, which reaches 1 at i = log n; the last
        # iteration forces 1 against floating-point shortfall.
        probability = 1.0 if iteration == num_iterations else min(1.0, (2.0**iteration) / n)
        uncovered = engine.uncovered_nodes
        selected = uncovered[random_subset_mask(uncovered.size, probability, rng)]
        new_centers = engine.add_centers(selected).size
        steps = growth_budget if engine.num_clusters else 0
        engine.grow_steps(steps)
        engine.record_iteration(iteration, uncovered.size, new_centers, steps, probability)
    refined = engine.to_clustering("cluster2")
    return Cluster2Result(clustering=refined, pilot=pilot, r_alg=r_alg)
