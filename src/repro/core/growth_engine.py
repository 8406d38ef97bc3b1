"""The disjoint cluster-growing engine behind every decomposition.

Every decomposition in the paper — CLUSTER (Algorithm 1), CLUSTER2
(Algorithm 2), the §7 weighted decomposition, the MPX baseline and the
single-batch ablation — rests on one primitive: a set of clusters, each with
a center, grows level-synchronously and *disjointly*; in each growing step
every active cluster extends its frontier by one hop, and when several
clusters reach the same node in the same step exactly one of them claims it.
One growing step corresponds to a constant number of MR rounds (Lemma 3), so
the per-step statistics recorded here are what the MR drivers in
:mod:`repro.core.mr_algorithms` convert into round/communication metrics.

:class:`GrowthEngine` holds that state and its primitives —
:meth:`~GrowthEngine.add_centers`, :meth:`~GrowthEngine.grow_step` and the
``grow_*`` helpers — and each decomposition is a short loop over them in its
own module, in the shape of the paper's pseudo-code: :func:`repro.core.cluster.
cluster` and :func:`~repro.core.cluster.single_batch_decomposition`,
:func:`repro.core.cluster2.cluster2` and
:func:`repro.baselines.mpx.mpx_decomposition`.  A contested node goes to the
first claimant in the adjacency scan (the paper's arbitrary tie-break), or, on
a weighted graph, to the claim with the smallest accumulated weighted
distance (§7).  The unweighted step is
:meth:`~repro.graph.kernels.DirectionOptimizer.expand`, the same push/pull
level that :func:`~repro.graph.kernels.frontier_expansion` runs; the weighted
step is a gather plus :func:`~repro.graph.kernels.claim_min`.

This module also holds CLUSTER's parameter helpers and the farthest-point
traversal behind Gonzalez's k-center baseline.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.clustering import Clustering, GrowthStepStats, IterationStats
from repro.graph import kernels
from repro.utils.validation import check_node_batch, check_node_index

UNCOVERED = -1

__all__ = [
    "UNCOVERED",
    "GrowthEngine",
    "farthest_point_centers",
    "selection_probability",
    "uncovered_threshold",
]

_EMPTY = np.zeros(0, dtype=np.int64)


class GrowthEngine:
    """Mutable state of a disjoint cluster-growing process.

    Works on unweighted graphs (hop metric) and weighted ones, where it also
    tracks every node's accumulated weighted growth distance.  A decomposition
    is a loop over the primitives, e.g. one CLUSTER iteration::

        engine.mark()
        engine.add_centers(batch)
        steps = engine.grow_until(target)
        engine.record_iteration(iteration, uncovered_before, new_centers, steps)

    followed, after the loop, by :meth:`cover_remaining_as_singletons` and
    :meth:`to_clustering`.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        n = graph.num_nodes
        self.assignment = np.full(n, UNCOVERED, dtype=np.int64)
        self.distance = np.full(n, UNCOVERED, dtype=np.int64)
        self.centers: List[int] = []
        self.frontier = _EMPTY
        self.num_covered = 0
        self.num_steps = 0
        self.step_log: List[GrowthStepStats] = []
        self.iterations: List[IterationStats] = []
        self._mark_covered = 0
        self.weighted_distance: Optional[np.ndarray] = None
        self._optimizer: Optional[kernels.DirectionOptimizer] = None
        if graph.is_weighted:
            self.weighted_distance = np.full(n, np.inf)
            self._workspace = kernels.ClaimWorkspace(n)
        else:
            # ``assignment`` doubles as the optimizer's status array: its
            # ``UNCOVERED`` sentinel is the kernels' ``-1`` unvisited mark.
            self._optimizer = kernels.DirectionOptimizer(
                graph.indptr, graph.indices, self.assignment, degrees=graph.degrees, covered=_EMPTY
            )

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_clusters(self) -> int:
        return len(self.centers)

    @property
    def num_uncovered(self) -> int:
        return self.num_nodes - self.num_covered

    @property
    def uncovered_nodes(self) -> np.ndarray:
        """Array of currently uncovered node ids."""
        return np.flatnonzero(self.assignment == UNCOVERED)

    def mark(self) -> None:
        """Remember the current coverage count (start of an outer iteration)."""
        self._mark_covered = self.num_covered

    @property
    def newly_covered_since_mark(self) -> int:
        """Nodes covered since the last :meth:`mark` call."""
        return self.num_covered - self._mark_covered

    def record_iteration(
        self,
        iteration: int,
        uncovered_before: int,
        new_centers: int,
        growth_steps: int,
        selection_probability: float = math.nan,
    ) -> None:
        """Append one outer iteration's :class:`IterationStats` (its
        ``covered_after`` is the engine's current coverage)."""
        self.iterations.append(
            IterationStats(
                iteration=iteration,
                uncovered_before=uncovered_before,
                new_centers=new_centers,
                growth_steps=growth_steps,
                covered_after=self.num_covered,
                selection_probability=selection_probability,
            )
        )

    # ------------------------------------------------------------------ #
    # Growth primitives
    # ------------------------------------------------------------------ #
    def add_centers(self, nodes: Sequence[int]) -> np.ndarray:
        """Activate new singleton clusters centered at ``nodes``.

        Nodes that are already covered are ignored (they cannot become
        centers).  Returns the array of accepted center node ids.
        """
        candidate = np.unique(check_node_batch(nodes, self.num_nodes, "centers"))
        accepted = candidate[self.assignment[candidate] == UNCOVERED]
        if accepted.size == 0:
            return accepted
        self.assignment[accepted] = np.arange(len(self.centers), len(self.centers) + accepted.size)
        self.distance[accepted] = 0
        if self.weighted_distance is not None:
            self.weighted_distance[accepted] = 0.0
        self.centers.extend(int(v) for v in accepted)
        self.num_covered += int(accepted.size)
        self.frontier = np.concatenate([self.frontier, accepted])
        if self._optimizer is not None:
            self._optimizer.on_covered(accepted)
        return accepted

    def grow_step(self) -> int:
        """Grow every active cluster by one hop; return #newly covered nodes.

        An unweighted step is one :meth:`~repro.graph.kernels.
        DirectionOptimizer.expand` level (push gather + first claimant, or the
        bit-identical pull scan).  A weighted step gathers the frontier's arcs
        and keeps, per contested node, the claim with the smallest accumulated
        weighted distance.  The recorded ``arcs_scanned`` is always the
        frontier's arc count (every arc leaving the frontier is charged to the
        round, Lemma 3), whichever direction ran.
        """
        frontier = self.frontier
        if frontier.size == 0:
            return 0
        new_weights = None
        if self._optimizer is not None:
            new_nodes, parents = self._optimizer.expand(frontier)
            arcs_scanned = self._optimizer.frontier_arcs
        else:
            src, dst, positions = kernels.gather_neighbors(self.graph.indptr, self.graph.indices, frontier)
            arcs_scanned = int(dst.size)
            kernels.record_level_stats("push", frontier.size, arcs_scanned)
            open_mask = self.assignment[dst] == UNCOVERED
            new_nodes, parents = dst[open_mask], src[open_mask]
            if new_nodes.size:
                weight = self.weighted_distance[parents] + self.graph.weights[positions[open_mask]]
                new_nodes, parents, new_weights = kernels.claim_min(
                    new_nodes, parents, weight, workspace=self._workspace
                )
        newly = int(new_nodes.size)
        if newly:
            self.assignment[new_nodes] = self.assignment[parents]
            self.distance[new_nodes] = self.distance[parents] + 1
            if new_weights is not None:
                self.weighted_distance[new_nodes] = new_weights
            self.num_covered += newly
            if self._optimizer is not None:
                self._optimizer.on_covered(new_nodes)
        self.frontier = new_nodes if newly else _EMPTY
        self.num_steps += 1
        self.step_log.append(
            GrowthStepStats(frontier_size=int(frontier.size), arcs_scanned=arcs_scanned, newly_covered=newly)
        )
        return newly

    def grow_until(self, target_new_nodes: int) -> int:
        """Grow until at least ``target_new_nodes`` nodes are covered since the
        last :meth:`mark` or a step makes no progress.

        Returns the number of growing steps executed.
        """
        steps = 0
        while self.newly_covered_since_mark < target_new_nodes:
            covered = self.grow_step()
            steps += 1
            if covered == 0:
                break
        return steps

    def grow_steps(self, count: int) -> int:
        """Execute exactly ``count`` growing steps (stopping early only when the
        frontier dies out); returns the number of nodes covered."""
        covered = 0
        for _ in range(count):
            covered += self.grow_step()
            if self.frontier.size == 0:
                break
        return covered

    def grow_to_exhaustion(self) -> int:
        """Grow until the graph is covered or no step makes progress; returns
        the number of growing steps executed."""
        steps = 0
        while self.num_uncovered > 0:
            steps += 1
            if self.grow_step() == 0:
                break
        return steps

    def cover_remaining_as_singletons(self) -> np.ndarray:
        """Turn every still-uncovered node into a singleton cluster
        (the final statement of Algorithm 1)."""
        return self.add_centers(self.uncovered_nodes)

    def to_clustering(self, algorithm: str = "cluster") -> Clustering:
        """Freeze the growth state into a :class:`Clustering` (requires full coverage).

        A run on a weighted graph also records the weighted growth distances.
        """
        if self.num_covered != self.num_nodes:
            raise RuntimeError(
                f"cannot freeze clustering: {self.num_uncovered} nodes are still uncovered"
            )
        return Clustering(
            num_nodes=self.num_nodes,
            assignment=self.assignment.copy(),
            centers=np.asarray(self.centers, dtype=np.int64),
            distance=self.distance.copy(),
            growth_steps=self.num_steps,
            iterations=list(self.iterations),
            step_log=list(self.step_log),
            algorithm=algorithm,
            weighted_distance=(
                None if self.weighted_distance is None else self.weighted_distance.copy()
            ),
        )


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


# ---------------------------------------------------------------------------
# Farthest-point traversal
# ---------------------------------------------------------------------------
def farthest_point_centers(graph, k: int, first_center: int) -> List[int]:
    """Gonzalez's farthest-point traversal.

    Repeatedly adds the node farthest from the current center set: each
    addition takes the new center's distance row from
    :func:`~repro.graph.kernels.distance_rows` (hops, or weighted distance on
    a weighted graph) and merges it into the running minimum.  Nodes
    unreachable from every center (other components) take priority so every
    component gets a center as soon as possible.  Returns the selected center
    list (size ``min(k, n)``).
    """
    if graph.num_nodes == 0:
        raise ValueError("graph must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")

    def distances_from(source: int) -> np.ndarray:
        return kernels.distance_rows(
            graph.indptr, graph.indices, graph.weights, [source], degrees=graph.degrees
        )[0]

    centers = [check_node_index(first_center, graph.num_nodes, "first_center")]
    distances = distances_from(centers[0])
    for _ in range(k - 1):
        unreachable = np.flatnonzero(np.isinf(distances))
        next_center = int(unreachable[0]) if unreachable.size else int(np.argmax(distances))
        centers.append(next_center)
        distances = np.minimum(distances, distances_from(next_center))
    return centers
