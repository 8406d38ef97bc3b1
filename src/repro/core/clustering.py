"""Clustering result objects shared by CLUSTER, CLUSTER2, MPX and k-center.

A :class:`Clustering` is a partition of the node set into disjoint,
internally-connected clusters, each with a designated center, together with
the per-node growth distance (the number of growing steps after which the
node was covered — an upper bound on, and in the growth forest equal to, the
distance from the node to its center).  A decomposition of a weighted graph
(the paper's §7 outlook) also records the weighted length of every node's
growth path.  It also carries the execution trace (per-iteration and
per-growing-step statistics) needed by the MR-round accounting of
:mod:`repro.core.mr_algorithms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.graph import kernels
from repro.graph.csr import CSRGraph

__all__ = ["Clustering", "IterationStats", "GrowthStepStats"]


@dataclass(frozen=True)
class GrowthStepStats:
    """Statistics of a single parallel cluster-growing step.

    Attributes
    ----------
    frontier_size:
        Number of frontier nodes expanded in this step.
    arcs_scanned:
        Number of adjacency-list entries examined (the communication volume
        of the corresponding MR round).
    newly_covered:
        Number of previously uncovered nodes covered by this step.
    """

    frontier_size: int
    arcs_scanned: int
    newly_covered: int


@dataclass(frozen=True)
class IterationStats:
    """Statistics of one iteration of the outer loop of CLUSTER / CLUSTER2."""

    iteration: int
    uncovered_before: int
    new_centers: int
    growth_steps: int
    covered_after: int
    selection_probability: float


@dataclass
class Clustering:
    """A disjoint decomposition of a graph into connected clusters.

    Attributes
    ----------
    num_nodes:
        Number of nodes of the underlying graph.
    assignment:
        int64 array mapping every node to its cluster id in ``0..k-1``.
    centers:
        int64 array of length ``k``; ``centers[c]`` is the center node of
        cluster ``c``.
    distance:
        int64 array; growth distance of every node from its cluster center
        (0 for centers), in hops — the parallel-depth quantity.
    growth_steps:
        Total number of parallel growing steps performed (the quantity ``R``
        of Lemma 3 which drives the MR round complexity).
    iterations:
        Per-outer-iteration statistics.
    step_log:
        Per-growing-step statistics, in execution order.
    algorithm:
        Human-readable name of the producing algorithm.
    weighted_distance:
        float64 array of accumulated edge weight along every node's growth
        path (0.0 for centers), or ``None`` for a decomposition of an
        unweighted graph.  A genuine path length, hence an upper bound on the
        weighted distance to the center.
    """

    num_nodes: int
    assignment: np.ndarray
    centers: np.ndarray
    distance: np.ndarray
    growth_steps: int = 0
    iterations: List[IterationStats] = field(default_factory=list)
    step_log: List[GrowthStepStats] = field(default_factory=list)
    algorithm: str = "cluster"
    weighted_distance: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def num_clusters(self) -> int:
        """Number of clusters ``k``."""
        return int(self.centers.size)

    def cluster_sizes(self) -> np.ndarray:
        """Array of cluster sizes (indexed by cluster id)."""
        return np.bincount(self.assignment, minlength=self.num_clusters).astype(np.int64)

    @property
    def max_radius(self) -> int:
        """Maximum cluster radius ``R_ALG`` (growth-based, as tracked by the algorithm)."""
        return int(self.distance.max()) if self.distance.size else 0

    @property
    def is_weighted(self) -> bool:
        """Whether the decomposition records weighted growth distances."""
        return self.weighted_distance is not None

    @property
    def weighted_radius(self) -> float:
        """Maximum weighted growth distance to a center (weighted decompositions)."""
        return float(self.weighted_distance.max()) if self.weighted_distance.size else 0.0

    def members(self, cluster_id: int) -> np.ndarray:
        """Node ids belonging to ``cluster_id``."""
        if not (0 <= cluster_id < self.num_clusters):
            raise IndexError(f"cluster {cluster_id} out of range")
        return np.flatnonzero(self.assignment == cluster_id)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self, graph: Optional[CSRGraph] = None) -> None:
        """Check the structural invariants of the decomposition.

        Raises ``AssertionError`` describing the first violated invariant.
        The graph is required for the connectivity / distance-consistency
        checks; without it only the partition invariants are verified.  A
        weighted decomposition's growth-path lengths must also be
        non-negative, zero at the centers, and (given the graph) no shorter
        than the weighted distance to the nearest center.
        """
        assert self.assignment.shape == (self.num_nodes,), "assignment has wrong shape"
        assert self.distance.shape == (self.num_nodes,), "distance has wrong shape"
        if self.num_nodes == 0:
            return
        assert self.assignment.min() >= 0, "every node must be assigned to a cluster"
        assert self.assignment.max() < self.num_clusters, "assignment references unknown cluster"
        used = np.unique(self.assignment)
        assert used.size == self.num_clusters, "every cluster must be non-empty"
        assert np.all(self.assignment[self.centers] == np.arange(self.num_clusters)), (
            "each center must belong to its own cluster"
        )
        assert np.all(self.distance[self.centers] == 0), "centers must have distance 0"
        assert np.all(self.distance >= 0), "distances must be non-negative"
        if self.is_weighted:
            assert self.weighted_distance.shape == (self.num_nodes,), "weighted_distance has wrong shape"
            assert np.all(self.weighted_distance[self.centers] == 0.0), "centers must have weighted distance 0"
            assert np.all(self.weighted_distance >= 0.0), "weighted distances must be non-negative"
        if graph is not None:
            assert graph.num_nodes == self.num_nodes, "graph/clustering size mismatch"
            self._validate_growth_consistency(graph)
            if self.is_weighted:
                nearest, _ = kernels.delta_stepping(
                    graph.indptr, graph.indices, graph.weights, np.unique(self.centers)
                )
                assert np.all(self.weighted_distance + 1e-9 >= nearest), (
                    "growth-path distance must upper-bound the nearest-center distance"
                )

    def _validate_growth_consistency(self, graph: CSRGraph) -> None:
        """Every non-center node must have a same-cluster neighbour one step closer."""
        nodes = np.flatnonzero(self.distance > 0)
        if nodes.size == 0:
            return
        src, dst = graph.neighbor_blocks(nodes)
        same_cluster = self.assignment[src] == self.assignment[dst]
        closer = self.distance[dst] == self.distance[src] - 1
        good = np.zeros(self.num_nodes, dtype=bool)
        satisfied = src[same_cluster & closer]
        good[satisfied] = True
        missing = nodes[~good[nodes]]
        assert missing.size == 0, (
            f"{missing.size} nodes (e.g. {missing[:5].tolist()}) lack a same-cluster "
            "parent one growth step closer to the center"
        )

    def summary(self) -> dict:
        """Compact dict used by the experiment tables."""
        sizes = self.cluster_sizes()
        return {
            "algorithm": self.algorithm,
            "num_clusters": self.num_clusters,
            "max_radius": self.max_radius,
            "growth_steps": self.growth_steps,
            "largest_cluster": int(sizes.max()) if sizes.size else 0,
            "mean_cluster_size": float(sizes.mean()) if sizes.size else 0.0,
            **({"weighted_radius": round(self.weighted_radius, 3)} if self.is_weighted else {}),
        }
