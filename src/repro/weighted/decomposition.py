"""Weighted CLUSTER: the hop-bounded weighted decomposition (paper §7 outlook).

The paper's conclusions describe a "preliminary decomposition strategy that,
together with the number of clusters and their weighted radius, also controls
their hop radius, which governs the parallel depth of the computation".  This
module implements that strategy as a natural weighted generalization of
Algorithm 1, reusing the shared :class:`~repro.core.growth_engine.GrowthEngine`
end to end:

* the outer loop is *identical* to CLUSTER — the engine runs the very same
  :class:`~repro.core.growth_engine.BatchHalvingSchedule` (select a batch of
  new centers with probability ``4 τ log n / |uncovered|``, grow until at
  least half of the uncovered nodes are covered, repeat while more than
  ``8 τ log n`` nodes are uncovered);
* only the tie-break policy differs: a growing step extends every active
  cluster by **one hop** (one parallel round), and when several clusters reach
  the same uncovered node in the same round the
  :class:`~repro.core.growth_engine.MinWeightTieBreak` policy awards it to the
  cluster offering the **smallest accumulated weighted distance**;
* the decomposition therefore records, per node, both the hop distance (number
  of rounds after activation of its cluster — the parallel-depth quantity)
  and the weighted distance along the growth path (the weighted-radius
  quantity), plus the same per-step/per-iteration execution trace as the
  unweighted algorithms, so the MR-round accounting of
  :mod:`repro.core.mr_algorithms` covers weighted runs too.

The weighted distance along the growth path is a genuine path length, hence an
upper bound on the true weighted distance to the center; the hop distance is
exactly the number of parallel rounds the cluster needed to reach the node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.cluster import tune_tau
from repro.core.clustering import GrowthStepStats, IterationStats
from repro.core.growth_engine import (
    UNCOVERED,
    BatchHalvingSchedule,
    GrowthEngine,
    MinWeightTieBreak,
)
from repro.utils.rng import SeedLike, as_rng
from repro.weighted.traversal import multi_source_dijkstra
from repro.weighted.wgraph import WeightedCSRGraph

__all__ = [
    "WeightedClustering",
    "weighted_cluster",
    "weighted_cluster_with_target_clusters",
    "UNCOVERED",
]


@dataclass
class WeightedClustering:
    """A disjoint decomposition of a weighted graph.

    Attributes
    ----------
    num_nodes:
        Number of nodes.
    assignment:
        Cluster id of every node.
    centers:
        Center node of every cluster.
    hop_distance:
        Number of growing rounds after which each node was covered
        (0 for centers) — the hop radius is ``hop_distance.max()``.
    weighted_distance:
        Accumulated edge weight along the growth path from the center
        (0.0 for centers) — the weighted radius is ``weighted_distance.max()``.
    growth_rounds:
        Total number of parallel growing rounds executed (parallel depth).
    iterations / step_log:
        The same execution trace as :class:`~repro.core.clustering.Clustering`
        (one :class:`IterationStats` per outer iteration, one
        :class:`GrowthStepStats` per growing round), consumed by the MR-round
        accounting in :mod:`repro.core.mr_algorithms`.
    """

    num_nodes: int
    assignment: np.ndarray
    centers: np.ndarray
    hop_distance: np.ndarray
    weighted_distance: np.ndarray
    growth_rounds: int = 0
    iterations: List[IterationStats] = field(default_factory=list)
    step_log: List[GrowthStepStats] = field(default_factory=list)
    algorithm: str = "weighted-cluster"

    @property
    def num_clusters(self) -> int:
        return int(self.centers.size)

    @property
    def growth_steps(self) -> int:
        """Alias of :attr:`growth_rounds` matching the unweighted
        :class:`~repro.core.clustering.Clustering` interface."""
        return self.growth_rounds

    @property
    def hop_radius(self) -> int:
        """Maximum hop distance (the parallel-depth quantity)."""
        return int(self.hop_distance.max()) if self.hop_distance.size else 0

    @property
    def distance(self) -> np.ndarray:
        """Alias of :attr:`hop_distance` matching the unweighted
        :class:`~repro.core.clustering.Clustering` interface, so quotient
        building and MR accounting consume weighted decompositions unchanged."""
        return self.hop_distance

    @property
    def max_radius(self) -> int:
        """Alias of :attr:`hop_radius` (the :class:`Clustering` name)."""
        return self.hop_radius

    @property
    def weighted_radius(self) -> float:
        """Maximum accumulated weighted distance to a center."""
        return float(self.weighted_distance.max()) if self.weighted_distance.size else 0.0

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_clusters).astype(np.int64)

    def members(self, cluster_id: int) -> np.ndarray:
        if not (0 <= cluster_id < self.num_clusters):
            raise IndexError(f"cluster {cluster_id} out of range")
        return np.flatnonzero(self.assignment == cluster_id)

    def validate(self, graph: Optional[WeightedCSRGraph] = None) -> None:
        """Check partition / consistency invariants (AssertionError on failure)."""
        assert self.assignment.shape == (self.num_nodes,)
        if self.num_nodes == 0:
            return
        assert self.assignment.min() >= 0
        assert self.assignment.max() < self.num_clusters
        assert np.unique(self.assignment).size == self.num_clusters
        assert np.all(self.assignment[self.centers] == np.arange(self.num_clusters))
        assert np.all(self.hop_distance[self.centers] == 0)
        assert np.all(self.weighted_distance[self.centers] == 0.0)
        assert np.all(self.hop_distance >= 0)
        assert np.all(self.weighted_distance >= 0.0)
        if graph is not None:
            assert graph.num_nodes == self.num_nodes
            # The growth-path weighted distance upper-bounds the true distance
            # from the node's own cluster center.
            exact = multi_source_dijkstra(graph, list(self.centers))
            assert np.all(self.weighted_distance + 1e-9 >= exact.distances), (
                "growth-path distance must upper-bound the nearest-center distance"
            )

    def summary(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "num_clusters": self.num_clusters,
            "hop_radius": self.hop_radius,
            "weighted_radius": round(self.weighted_radius, 3),
            "growth_rounds": self.growth_rounds,
        }


def weighted_cluster(
    graph: WeightedCSRGraph,
    tau: int,
    *,
    seed: SeedLike = None,
    max_iterations: Optional[int] = None,
) -> WeightedClustering:
    """Hop-bounded weighted decomposition (weighted CLUSTER(τ)).

    Identical batch-halving structure to Algorithm 1; ties inside a growing
    round are resolved toward the cluster with the smallest accumulated
    weighted distance, so the weighted radius stays controlled while the hop
    radius (= number of growing rounds) controls the parallel depth.
    """
    if tau < 1:
        raise ValueError(f"tau must be a positive integer, got {tau}")
    schedule = BatchHalvingSchedule(tau, as_rng(seed), max_iterations=max_iterations)
    engine = GrowthEngine(graph, tie_break=MinWeightTieBreak())
    return engine.run(schedule).to_weighted_clustering("weighted-cluster")


def weighted_cluster_with_target_clusters(
    graph: WeightedCSRGraph,
    target_clusters: int,
    *,
    seed: SeedLike = None,
    tolerance: float = 0.35,
    max_trials: int = 12,
) -> WeightedClustering:
    """Run the weighted decomposition with τ tuned toward a cluster count.

    The weighted CLUSTER shares Algorithm 1's batch-halving schedule, so the
    ``#clusters = O(τ log² n)`` inversion and the multiplicative search of
    :func:`repro.core.cluster.cluster_with_target_clusters` apply unchanged —
    this is the §6 tuning protocol on the weighted stack, used by the
    pipeline's ``method="weighted"`` with ``target_clusters``.
    """
    rng = as_rng(seed)
    return tune_tau(
        lambda tau: weighted_cluster(graph, tau, seed=rng),
        graph.num_nodes,
        target_clusters,
        tolerance=tolerance,
        max_trials=max_trials,
    )
