"""The unified, policy-driven disjoint cluster-growing engine.

Every decomposition algorithm in the paper — CLUSTER (Algorithm 1), CLUSTER2
(Algorithm 2), the §7 weighted decomposition, the MPX baseline, and the
k-center applications — is built on one primitive: a set of clusters, each
with a center, grows level-synchronously and *disjointly*; in each growing
step every active cluster extends its frontier by one hop, and when several
clusters attempt to cover the same node in the same step exactly one of them
succeeds.  One growing step corresponds to a constant number of MR rounds
(Lemma 3), so the per-step statistics recorded here are what the MR drivers
in :mod:`repro.core.mr_algorithms` convert into round/communication metrics.

This module implements that primitive exactly once, parameterized by two
pluggable policies:

* a :class:`TieBreakPolicy` decides which claimant wins a contested node —
  :class:`ArbitraryTieBreak` (the paper's unweighted algorithms),
  :class:`MinWeightTieBreak` (the weighted decomposition: smallest accumulated
  weighted distance wins), or :class:`ShiftedStartTieBreak` (the
  continuous-time MPX semantics: the cluster whose center has the smallest
  shifted start time wins);
* a :class:`CenterSchedule` decides which new centers activate at the start
  of each outer iteration and how far the clusters grow before the next batch
  — :class:`BatchHalvingSchedule` (CLUSTER's ``4 τ log n / |uncovered|``
  batches grown until half the uncovered nodes are covered),
  :class:`GeometricSchedule` (CLUSTER2's ``2^i / n`` probabilities with a
  fixed ``2 R_ALG`` growth budget), :class:`ShiftActivationSchedule` (MPX's
  exponential-shift start times, one growing step per integer round), and
  :class:`StaticSchedule` (all centers up front, grown to exhaustion — plain
  multi-source growth, also the building block of the farthest-point k-center
  traversal via :func:`farthest_point_centers`).

The engine is fully vectorized on the shared kernels of
:mod:`repro.graph.kernels`: a growing step is one
:func:`~repro.graph.kernels.gather_neighbors` over the current frontier
followed by a :func:`~repro.graph.kernels.claim_first` /
:func:`~repro.graph.kernels.claim_min` resolution that keeps a single
claimant per newly covered node.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clustering import Clustering, GrowthStepStats, IterationStats
from repro.graph import kernels
from repro.graph.traversal import dijkstra
from repro.utils.rng import SeedLike, as_rng, random_subset_mask
from repro.utils.validation import check_node_batch

UNCOVERED = -1

__all__ = [
    "UNCOVERED",
    "GrowthEngine",
    "TieBreakPolicy",
    "ArbitraryTieBreak",
    "MinWeightTieBreak",
    "ShiftedStartTieBreak",
    "CenterSchedule",
    "BatchHalvingSchedule",
    "GeometricSchedule",
    "ShiftActivationSchedule",
    "StaticSchedule",
    "multi_source_growth",
    "farthest_point_centers",
    "selection_probability",
    "uncovered_threshold",
]


# ---------------------------------------------------------------------------
# Tie-break policies
# ---------------------------------------------------------------------------
class TieBreakPolicy:
    """Decides which cluster claims a node contested within one growing step.

    A policy provides two hooks: :meth:`gather` produces the candidate claims
    ``(source, target, weight-or-None)`` for a frontier, and :meth:`resolve`
    keeps exactly one claim per contested target.  ``weighted`` marks whether
    the engine must maintain accumulated weighted distances.
    """

    name = "abstract"
    weighted = False

    def gather(
        self, graph, frontier: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Candidate claims for ``frontier``: ``(sources, targets, weights)``."""
        src, dst, _ = kernels.gather_neighbors(graph.indptr, graph.indices, frontier)
        return src, dst, None

    def resolve(
        self,
        engine: "GrowthEngine",
        src: np.ndarray,
        dst: np.ndarray,
        weight: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Keep one claim per target; returns ``(targets, parents, weights)``."""
        raise NotImplementedError


class ArbitraryTieBreak(TieBreakPolicy):
    """First claimant in the concatenated adjacency scan wins.

    This is the arbitrary-but-deterministic choice allowed by the paper's
    Algorithm 1 (and used by CLUSTER, CLUSTER2, MPX and multi-source BFS).
    """

    name = "arbitrary"

    def resolve(self, engine, src, dst, weight):
        new_nodes, parents = kernels.claim_first(dst, src, workspace=engine.claim_workspace)
        return new_nodes, parents, None


class MinWeightTieBreak(TieBreakPolicy):
    """The claim with the smallest accumulated weighted distance wins.

    Requires a weighted graph; this is the tie-break of the §7 hop-bounded
    weighted decomposition, keeping the weighted radius controlled while the
    hop radius (number of growing rounds) controls the parallel depth.
    """

    name = "min-weight"
    weighted = True

    def gather(self, graph, frontier):
        src, dst, positions = kernels.gather_neighbors(
            graph.indptr, graph.indices, frontier
        )
        return src, dst, graph.weights[positions]

    def resolve(self, engine, src, dst, weight):
        candidate = engine.weighted_distance[src] + weight
        # claim_min: primary key target node, secondary accumulated weight.
        return kernels.claim_min(dst, src, candidate, workspace=engine.claim_workspace)


class ShiftedStartTieBreak(TieBreakPolicy):
    """The claimant whose *center* has the smallest priority wins.

    With ``priority[u] = δ_max − δ_u`` (the MPX start times) this realizes the
    continuous-time MPX rule: a contested node joins the cluster of the center
    that started earliest, i.e. the center minimizing ``dist(u, v) − δ_u``
    restricted to the claims arriving in the same integer round.
    """

    name = "shifted-start"

    def __init__(self, priority: np.ndarray) -> None:
        self.priority = np.asarray(priority, dtype=np.float64)

    def resolve(self, engine, src, dst, weight):
        center_of = engine.centers_array[engine.assignment[src]]
        new_nodes, parents, _ = kernels.claim_min(
            dst, src, self.priority[center_of], workspace=engine.claim_workspace
        )
        return new_nodes, parents, None


def _as_tie_break(policy: Optional[TieBreakPolicy], graph) -> TieBreakPolicy:
    if policy is None:
        return MinWeightTieBreak() if graph.is_weighted else ArbitraryTieBreak()
    if not isinstance(policy, TieBreakPolicy):
        raise TypeError(f"tie_break must be a TieBreakPolicy or None, got {policy!r}")
    if policy.weighted != graph.is_weighted:
        raise ValueError(
            f"tie-break policy {policy.name!r} expects "
            f"{'a weighted' if policy.weighted else 'an unweighted'} graph "
            "(use graph.unweighted() or attach weights to convert)"
        )
    return policy


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
class GrowthEngine:
    """Mutable state of a disjoint cluster-growing process.

    Works on unweighted graphs (hop metric) and weighted ones (hop + weighted
    metric); the default tie-break policy is :class:`ArbitraryTieBreak` for
    the former and :class:`MinWeightTieBreak` for the latter.

    Low-level usage (this is literally the inner loop of CLUSTER)::

        engine = GrowthEngine(graph)
        engine.add_centers(first_batch)
        while engine.newly_covered_since_mark < target:
            if engine.grow_step() == 0:
                break
        clustering = engine.to_clustering()

    High-level usage drives a :class:`CenterSchedule`::

        clustering = GrowthEngine(graph).run(
            BatchHalvingSchedule(tau, rng)
        ).to_clustering("cluster")
    """

    def __init__(
        self,
        graph,
        *,
        tie_break: Optional[TieBreakPolicy] = None,
    ) -> None:
        self.graph = graph
        self.tie_break = _as_tie_break(tie_break, graph)
        n = graph.num_nodes
        self.assignment = np.full(n, UNCOVERED, dtype=np.int64)
        self.distance = np.full(n, UNCOVERED, dtype=np.int64)
        self.weighted_distance: Optional[np.ndarray] = (
            np.full(n, np.inf) if self.tie_break.weighted else None
        )
        self.centers: List[int] = []
        self.frontier = np.zeros(0, dtype=np.int64)
        self.num_covered = 0
        self.num_steps = 0
        self.step_log: List[GrowthStepStats] = []
        self.iterations: List[IterationStats] = []
        self._mark_covered = 0
        self._claim_workspace: Optional[kernels.ClaimWorkspace] = None
        self._direction_optimizer: Optional[kernels.DirectionOptimizer] = None

    @property
    def claim_workspace(self) -> kernels.ClaimWorkspace:
        """Shared scratch enabling the sort-free claims (lazily allocated)."""
        if self._claim_workspace is None:
            self._claim_workspace = kernels.ClaimWorkspace(self.num_nodes)
        return self._claim_workspace

    def _ensure_direction_optimizer(self) -> Optional[kernels.DirectionOptimizer]:
        """Direction-optimizing state, or None when pull mode is unavailable.

        Pull levels reproduce exactly the first-claimant rule, so they are
        only eligible for the plain :class:`ArbitraryTieBreak` (whose
        ``UNCOVERED`` sentinel also matches the optimizer's ``-1`` unvisited
        convention); weighted / shifted-start growth stays push-only.  Created
        lazily at the first growing step so the initial covered scan reflects
        every center added so far; later coverage flows through
        :meth:`~repro.graph.kernels.DirectionOptimizer.on_covered`.
        """
        if type(self.tie_break) is not ArbitraryTieBreak:
            return None
        if self._direction_optimizer is None:
            self._direction_optimizer = kernels.DirectionOptimizer(
                self.graph.indptr,
                self.graph.indices,
                self.assignment,
                degrees=self.graph.degrees,
            )
        return self._direction_optimizer

    # ------------------------------------------------------------------ #
    # Bookkeeping helpers
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

    @property
    def centers_array(self) -> np.ndarray:
        """The centers as an int64 array (``centers_array[assignment[v]]`` is
        the center node of ``v``'s cluster)."""
        return np.asarray(self.centers, dtype=np.int64)

    def mark(self) -> None:
        """Remember the current coverage count (start of an outer iteration)."""
        self._mark_covered = self.num_covered

    @property
    def newly_covered_since_mark(self) -> int:
        """Nodes covered since the last :meth:`mark` call."""
        return self.num_covered - self._mark_covered

    # ------------------------------------------------------------------ #
    # Mutations
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
        new_ids = np.arange(len(self.centers), len(self.centers) + accepted.size, dtype=np.int64)
        self.assignment[accepted] = new_ids
        self.distance[accepted] = 0
        if self.weighted_distance is not None:
            self.weighted_distance[accepted] = 0.0
        self.centers.extend(int(v) for v in accepted)
        self.num_covered += int(accepted.size)
        self.frontier = np.concatenate([self.frontier, accepted])
        if self._direction_optimizer is not None:
            self._direction_optimizer.on_covered(accepted)
        return accepted

    def _apply_claims(
        self,
        new_nodes: np.ndarray,
        parents: np.ndarray,
        new_weights: Optional[np.ndarray],
        optimizer: Optional[kernels.DirectionOptimizer],
    ) -> int:
        """Commit one step's resolved claims to the growth state."""
        if new_nodes.size == 0:
            self.frontier = np.zeros(0, dtype=np.int64)
            return 0
        self.assignment[new_nodes] = self.assignment[parents]
        self.distance[new_nodes] = self.distance[parents] + 1
        if new_weights is not None:
            self.weighted_distance[new_nodes] = new_weights
        self.num_covered += int(new_nodes.size)
        self.frontier = new_nodes
        if optimizer is not None:
            optimizer.on_covered(new_nodes)
        return int(new_nodes.size)

    def grow_step(self) -> int:
        """Grow every active cluster by one hop; return #newly covered nodes.

        Contested nodes (several clusters reaching the same node in the same
        step) are resolved by the engine's :class:`TieBreakPolicy`.

        Each step runs either as a push gather + tie-break resolution or — for
        the plain arbitrary tie-break — as a direction-optimized pull scan
        over uncovered nodes (see :class:`~repro.graph.kernels.
        DirectionOptimizer`); both produce bit-identical claims, and the
        recorded ``arcs_scanned`` always charges the push-equivalent arc count
        so MR round accounting is independent of the execution direction.
        """
        if self.frontier.size == 0:
            return 0
        frontier_size = int(self.frontier.size)
        optimizer = self._ensure_direction_optimizer()
        if optimizer is not None and optimizer.choose(self.frontier) == "pull":
            # MR accounting stays the push-equivalent arc count (every arc
            # leaving the frontier is charged to the round, Lemma 3) — the
            # pull scan is a local-execution strategy, not an MR plan change.
            arcs_scanned = optimizer.frontier_arcs
            new_nodes, parents = optimizer.pull_expand(self.frontier)
            kernels.record_level_stats("pull", frontier_size, optimizer.last_pull_arcs)
            newly = self._apply_claims(new_nodes, parents, None, optimizer)
        else:
            src, dst, weight = self.tie_break.gather(self.graph, self.frontier)
            arcs_scanned = int(dst.size)
            kernels.record_level_stats("push", frontier_size, arcs_scanned)
            newly = 0
            if dst.size:
                open_mask = self.assignment[dst] == UNCOVERED
                dst = dst[open_mask]
                src = src[open_mask]
                if weight is not None:
                    weight = weight[open_mask]
                if dst.size:
                    new_nodes, parents, new_weights = self.tie_break.resolve(
                        self, src, dst, weight
                    )
                    newly = self._apply_claims(new_nodes, parents, new_weights, optimizer)
                else:
                    self.frontier = np.zeros(0, dtype=np.int64)
            else:
                self.frontier = np.zeros(0, dtype=np.int64)
        self.num_steps += 1
        self.step_log.append(
            GrowthStepStats(
                frontier_size=frontier_size,
                arcs_scanned=arcs_scanned,
                newly_covered=newly,
            )
        )
        return newly

    def grow_until(self, target_new_nodes: int, *, max_steps: Optional[int] = None) -> int:
        """Grow until at least ``target_new_nodes`` nodes are covered since the
        last :meth:`mark`, a step makes no progress, or ``max_steps`` is hit.

        Returns the number of growing steps executed.
        """
        steps = 0
        while self.newly_covered_since_mark < target_new_nodes:
            if max_steps is not None and steps >= max_steps:
                break
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
            got = self.grow_step()
            covered += got
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

    def record_iteration(self, stats: IterationStats) -> None:
        """Append the statistics of one outer-loop iteration."""
        self.iterations.append(stats)

    # ------------------------------------------------------------------ #
    # The unified outer loop
    # ------------------------------------------------------------------ #
    def run(self, schedule: "CenterSchedule") -> "GrowthEngine":
        """Drive the outer decompose loop of ``schedule`` to completion.

        Every iteration activates the schedule's next center batch, grows per
        the schedule's plan, and records an :class:`IterationStats` entry;
        afterwards any still-uncovered nodes are promoted to singleton
        clusters (unless the schedule opts out).  Returns ``self`` so callers
        can chain ``.to_clustering(...)``.
        """
        schedule.begin(self)
        iteration = schedule.first_iteration
        while schedule.should_run(self, iteration):
            uncovered_before = self.num_uncovered
            selected, probability = schedule.select_centers(self, iteration)
            self.mark()
            accepted = self.add_centers(selected)
            steps = schedule.grow(self, iteration, uncovered_before, accepted)
            self.record_iteration(
                IterationStats(
                    iteration=iteration,
                    uncovered_before=uncovered_before,
                    new_centers=int(accepted.size),
                    growth_steps=steps,
                    covered_after=self.num_covered,
                    selection_probability=probability,
                )
            )
            if schedule.after_iteration(self, iteration):
                break
            iteration += 1
        if schedule.promote_singletons:
            self.cover_remaining_as_singletons()
        return self

    # ------------------------------------------------------------------ #
    # Freezing
    # ------------------------------------------------------------------ #
    def to_clustering(self, algorithm: str = "cluster") -> Clustering:
        """Freeze the growth state into a :class:`Clustering` (requires full coverage).

        A run with a weighted tie-break also records the weighted growth
        distances.
        """
        if self.num_covered != self.num_nodes:
            raise RuntimeError(
                f"cannot freeze clustering: {self.num_uncovered} nodes are still uncovered"
            )
        return Clustering(
            num_nodes=self.num_nodes,
            assignment=self.assignment.copy(),
            centers=self.centers_array,
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
# Center-selection schedules
# ---------------------------------------------------------------------------
class CenterSchedule:
    """Pluggable outer-loop policy for :meth:`GrowthEngine.run`.

    Subclasses control when the loop runs (:meth:`should_run`), which new
    centers activate each iteration (:meth:`select_centers`), and how far the
    clusters grow before the next batch (:meth:`grow`).  The engine handles
    all shared bookkeeping (marking, iteration statistics, final singleton
    promotion).
    """

    #: iteration index of the first outer iteration (CLUSTER2 counts from 1)
    first_iteration = 0
    #: promote still-uncovered nodes to singleton clusters after the loop
    promote_singletons = True

    def begin(self, engine: GrowthEngine) -> None:
        """One-time setup with access to the engine (graph size etc.)."""

    def should_run(self, engine: GrowthEngine, iteration: int) -> bool:
        """Whether to execute the outer iteration ``iteration``."""
        raise NotImplementedError

    def select_centers(
        self, engine: GrowthEngine, iteration: int
    ) -> Tuple[np.ndarray, float]:
        """New-center batch for this iteration plus the selection probability
        recorded in the iteration statistics (``nan`` if not applicable)."""
        raise NotImplementedError

    def grow(
        self,
        engine: GrowthEngine,
        iteration: int,
        uncovered_before: int,
        accepted: np.ndarray,
    ) -> int:
        """Grow the active clusters; returns the step count to record."""
        raise NotImplementedError

    def after_iteration(self, engine: GrowthEngine, iteration: int) -> bool:
        """Post-iteration hook; return True to stop the loop."""
        return False


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


class BatchHalvingSchedule(CenterSchedule):
    """Algorithm 1's progressive batches (also the weighted §7 schedule).

    While more than ``8 τ log n`` nodes are uncovered, select every uncovered
    node as a new center independently with probability
    ``4 τ log n / |uncovered|`` and grow all clusters until at least half of
    the previously uncovered nodes become covered.
    """

    def __init__(
        self,
        tau: int,
        rng: SeedLike = None,
        *,
        max_iterations: Optional[int] = None,
    ) -> None:
        if tau < 1:
            raise ValueError(f"tau must be a positive integer, got {tau}")
        self.tau = tau
        self.rng = as_rng(rng)
        self.max_iterations = max_iterations
        self.threshold = 0.0
        self.limit = 0

    def begin(self, engine: GrowthEngine) -> None:
        n = engine.num_nodes
        self.threshold = uncovered_threshold(n, self.tau)
        self.limit = (
            self.max_iterations
            if self.max_iterations is not None
            else int(4 * _log_n(n)) + 8
        )

    def should_run(self, engine: GrowthEngine, iteration: int) -> bool:
        return (
            engine.num_uncovered >= self.threshold
            and engine.num_uncovered > 0
            and iteration < self.limit
        )

    def select_centers(self, engine: GrowthEngine, iteration: int):
        uncovered = engine.uncovered_nodes
        probability = selection_probability(engine.num_nodes, self.tau, int(uncovered.size))
        mask = random_subset_mask(int(uncovered.size), probability, self.rng)
        selected = uncovered[mask]
        if selected.size == 0 and engine.num_clusters == 0:
            # Degenerate (very unlikely) draw with no active clusters: force a
            # single random center so the process can make progress.
            selected = self.rng.choice(uncovered, size=1)
        return selected, probability

    def grow(self, engine, iteration, uncovered_before, accepted) -> int:
        target = int(math.ceil(uncovered_before / 2.0))
        return engine.grow_until(target)


class GeometricSchedule(CenterSchedule):
    """CLUSTER2's refinement iterations (Algorithm 2).

    Over ``log n`` iterations, iteration ``i`` activates every uncovered node
    with probability ``2^i / n`` and grows all clusters for exactly
    ``growth_budget = 2 R_ALG`` steps.  The final iteration forces probability
    1 so the graph ends fully covered.
    """

    first_iteration = 1

    def __init__(self, growth_budget: int, rng: SeedLike = None) -> None:
        if growth_budget < 1:
            raise ValueError(f"growth_budget must be >= 1, got {growth_budget}")
        self.growth_budget = growth_budget
        self.rng = as_rng(rng)
        self.num_iterations = 1
        self._n = 1

    def begin(self, engine: GrowthEngine) -> None:
        self._n = engine.num_nodes
        self.num_iterations = max(1, int(math.ceil(math.log2(max(2, self._n)))))

    def should_run(self, engine: GrowthEngine, iteration: int) -> bool:
        return iteration <= self.num_iterations and engine.num_uncovered > 0

    def select_centers(self, engine: GrowthEngine, iteration: int):
        probability = min(1.0, (2.0 ** iteration) / self._n)
        if iteration == self.num_iterations:
            # Final iteration: the paper's probability 2^{log n}/n = 1 ensures
            # full coverage; guard against floating-point shortfall.
            probability = 1.0
        uncovered = engine.uncovered_nodes
        mask = random_subset_mask(int(uncovered.size), probability, self.rng)
        return uncovered[mask], probability

    def grow(self, engine, iteration, uncovered_before, accepted) -> int:
        if accepted.size or engine.num_clusters:
            engine.grow_steps(self.growth_budget)
            return self.growth_budget
        return 0


class ShiftActivationSchedule(CenterSchedule):
    """MPX's exponential-shift activation: integer round ``t`` activates every
    still-uncovered node whose start time ``δ_max − δ_u`` has arrived, then
    all active clusters grow exactly one hop."""

    def __init__(self, start_times: np.ndarray, max_round: int) -> None:
        self.start_times = np.asarray(start_times, dtype=np.float64)
        # Activation in integer rounds; within a round, nodes with smaller
        # start time activate "first" (deterministic tie-break by start time).
        activation_round = np.minimum(
            np.floor(self.start_times).astype(np.int64), max_round
        )
        self.round_order = np.argsort(self.start_times, kind="stable")
        self.sorted_rounds = activation_round[self.round_order]
        self._pointer = 0
        self._newly = 0

    def begin(self, engine: GrowthEngine) -> None:
        self._pointer = 0
        self._newly = 0

    def should_run(self, engine: GrowthEngine, iteration: int) -> bool:
        return engine.num_uncovered > 0

    def select_centers(self, engine: GrowthEngine, iteration: int):
        to_activate = []
        n = engine.num_nodes
        while self._pointer < n and self.sorted_rounds[self._pointer] <= iteration:
            to_activate.append(int(self.round_order[self._pointer]))
            self._pointer += 1
        return np.asarray(to_activate, dtype=np.int64), float("nan")

    def grow(self, engine, iteration, uncovered_before, accepted) -> int:
        self._newly = engine.grow_step() if engine.num_clusters else 0
        return 1 if engine.num_clusters else 0

    def after_iteration(self, engine: GrowthEngine, iteration: int) -> bool:
        # Once every node has been activated or absorbed, a fruitless step
        # means the remaining nodes are unreachable from any active cluster
        # (disconnected graph): stop and let the engine promote them to
        # singleton clusters.
        return (
            self._pointer >= engine.num_nodes
            and self._newly == 0
            and engine.num_uncovered > 0
        )


class StaticSchedule(CenterSchedule):
    """All centers activated up front, then grown disjointly to exhaustion.

    This is plain multi-source growth: the single-batch ablation baseline, the
    nearest-center assignment behind :func:`repro.core.kcenter.evaluate_centers`,
    and (with ``promote_singletons=False``) a drop-in multi-source BFS whose
    ``distance`` array keeps ``UNCOVERED`` for unreachable nodes.
    """

    def __init__(self, centers: Sequence[int], *, promote_singletons: bool = True) -> None:
        self._centers = np.asarray(centers)
        self.promote_singletons = promote_singletons

    def should_run(self, engine: GrowthEngine, iteration: int) -> bool:
        return iteration == 0

    def select_centers(self, engine: GrowthEngine, iteration: int):
        return self._centers, float("nan")

    def grow(self, engine, iteration, uncovered_before, accepted) -> int:
        return engine.grow_to_exhaustion()


# ---------------------------------------------------------------------------
# Convenience drivers
# ---------------------------------------------------------------------------
def multi_source_growth(
    graph,
    centers: Sequence[int],
    *,
    tie_break: Optional[TieBreakPolicy] = None,
    promote_singletons: bool = False,
) -> GrowthEngine:
    """Grow disjoint clusters from ``centers`` until no step makes progress.

    With the default arbitrary tie-break this computes exactly the
    (multi-source) BFS distances and owner assignment used by the k-center
    applications; unreachable nodes keep ``assignment == distance ==
    UNCOVERED`` unless ``promote_singletons`` is set.
    """
    engine = GrowthEngine(graph, tie_break=tie_break)
    return engine.run(StaticSchedule(centers, promote_singletons=promote_singletons))


def _distances_from(graph, source: int) -> np.ndarray:
    """Shortest-path distances from ``source`` (``inf`` where unreachable):
    weighted on a weighted graph, else hops from a single-source growth."""
    if graph.is_weighted:
        return dijkstra(graph, source)
    hops = multi_source_growth(graph, [source]).distance
    return np.where(hops >= 0, hops, np.inf)


def farthest_point_centers(
    graph,
    k: int,
    first_center: int,
) -> List[int]:
    """Gonzalez's farthest-point traversal.

    Repeatedly adds the node farthest from the current center set: each
    addition computes the new center's distances (a single-source
    :func:`multi_source_growth` run in hops,
    :func:`~repro.graph.traversal.dijkstra` on a weighted graph) and merges
    them into the running minimum.  Nodes unreachable from every
    center (other components) take priority so every component gets a center
    as soon as possible.  Returns the selected center list (size
    ``min(k, n)``).
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("graph must be non-empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    centers = [int(first_center)]
    distances = _distances_from(graph, centers[0])
    for _ in range(k - 1):
        unreachable = np.flatnonzero(np.isinf(distances))
        next_center = int(unreachable[0]) if unreachable.size else int(np.argmax(distances))
        centers.append(next_center)
        distances = np.minimum(distances, _distances_from(graph, next_center))
    return centers
