"""Shared vectorized frontier kernels over raw CSR arrays.

Every traversal in the library — unweighted BFS, disjoint cluster growing,
connected components, exact Dijkstra, and the hop-bounded weighted relaxation
of the §7 decomposition — is built from the same handful of array operations:
gather the adjacency blocks of a frontier, resolve one claim per contested
target, and iterate level-synchronously.  This module implements those
operations exactly once, on raw ``indptr`` / ``indices`` (/ ``weights``)
arrays so that :class:`~repro.graph.csr.CSRGraph`, the weighted subclass, the
:class:`~repro.core.growth_engine.GrowthEngine` policies, and the quotient
graph machinery can all share them without import cycles.

Kernel families
---------------
* :func:`gather_neighbors` — the frontier-expansion gather primitive (also
  returns the arc *positions* so weighted callers can align edge weights).
* :func:`claim_first` / :func:`claim_min` — keep exactly one claimant per
  contested target (the arbitrary and the min-key tie-break, respectively).
  With a :class:`ClaimWorkspace` both run *sort-free*: winners are selected by
  scattering emission-order ranks (and keys) into dense scratch arrays
  instead of sorting the whole claim list per level; without a workspace the
  original ``argsort`` / ``lexsort`` paths run as the frozen bit-identical
  reference.
* :func:`frontier_expansion` — level-synchronous multi-source BFS with owner
  tracking and an optional per-level hook (used by the MR-metered BFS).  The
  expansion is *direction-optimizing*: a :class:`DirectionOptimizer` switches
  each level between the classic push gather and a pull step that scans
  still-unvisited vertices against the frontier (Beamer-style alpha/beta
  heuristic), with pull winners replicated via min-frontier-rank so the
  outputs are bit-identical in either direction.
* :func:`msbfs_levels` — bit-parallel multi-source BFS advancing 64 sources
  per ``uint64`` word with HADI-style OR sweeps; backs :func:`eccentricities`,
  the quotient APSP of the distance oracle, and the serving plane's
  per-cluster eccentricity bounds.
* :func:`component_labels` / :func:`eccentricities` — BFS-derived utilities.
* :func:`delta_stepping` — bucketed relaxation computing *exact* weighted
  shortest paths (the vectorized replacement for per-node binary-heap
  Dijkstra loops).
* :func:`hop_bounded_relaxation` — level-synchronous Bellman–Ford rounds
  bounding the number of hops (the relaxation pattern of the weighted
  decomposition, exposed as a standalone kernel).
* :func:`neighbor_reduce` — per-node reduction of neighbour values.  HADI's
  production path now runs this as a structured MR round (the ``bitwise_or``
  reducer of :mod:`repro.mapreduce.structured`); the kernel is kept as the
  *independent in-memory reference* the structured round is cross-checked
  against (``tests/mapreduce/test_structured.py``) and as the generic
  neighbour-reduction primitive for non-MR callers.

Observability
-------------
``REPRO_KERNEL_STATS=1`` (or :func:`enable_kernel_stats`) turns on lightweight
aggregate counters — levels by direction, frontier sizes, edges scanned,
direction switches, claim and msbfs activity — readable via
:func:`kernel_stats_snapshot` and surfaced in the pipeline stage timings and
the kernel benchmark JSON.  Direction tuning: ``REPRO_BFS_DIRECTION``
(``auto`` / ``push`` / ``pull``), ``REPRO_BFS_ALPHA``, ``REPRO_BFS_BETA``,
``REPRO_MSBFS_BATCH``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "gather_neighbors",
    "ClaimWorkspace",
    "claim_first",
    "claim_min",
    "DirectionOptimizer",
    "frontier_expansion",
    "component_labels",
    "eccentricities",
    "msbfs_levels",
    "msbfs_batch_size",
    "delta_stepping",
    "hop_bounded_relaxation",
    "neighbor_reduce",
    "reduce_segments",
    "enable_kernel_stats",
    "kernel_stats_enabled",
    "kernel_stats_snapshot",
    "reset_kernel_stats",
    "record_level_stats",
]

_EMPTY = np.zeros(0, dtype=np.int64)

#: int64 sentinel marking "no frontier neighbour" in the pull-mode rank scan.
_NO_RANK = np.iinfo(np.int64).max

_WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


# --------------------------------------------------------------------------- #
# Opt-in kernel statistics
# --------------------------------------------------------------------------- #
class _KernelStats:
    """Aggregate counters for the frontier kernels (cheap int bumps only)."""

    _FIELDS = (
        "levels",
        "push_levels",
        "pull_levels",
        "direction_switches",
        "frontier_nodes",
        "edges_scanned",
        "edges_scanned_push",
        "edges_scanned_pull",
        "claims_scatter",
        "claims_sorted",
        "msbfs_sweeps",
        "msbfs_levels",
        "msbfs_edges_scanned",
    )
    __slots__ = _FIELDS

    def __init__(self) -> None:
        for field in self._FIELDS:
            setattr(self, field, 0)

    def snapshot(self) -> Dict[str, int]:
        return {field: int(getattr(self, field)) for field in self._FIELDS}


_STATS: Optional[_KernelStats] = None


def enable_kernel_stats(enabled: bool = True) -> None:
    """Turn the per-level kernel counters on (fresh) or off."""
    global _STATS
    _STATS = _KernelStats() if enabled else None


def kernel_stats_enabled() -> bool:
    """Whether the kernel counters are currently collected."""
    return _STATS is not None


def kernel_stats_snapshot() -> Dict[str, int]:
    """Copy of the current counters (all-zero when collection is off)."""
    return _STATS.snapshot() if _STATS is not None else _KernelStats().snapshot()


def reset_kernel_stats() -> None:
    """Zero the counters without changing whether they are collected."""
    if _STATS is not None:
        enable_kernel_stats(True)


def record_level_stats(direction: str, frontier_size: int, edges_scanned: int) -> None:
    """Record one frontier level (no-op unless stats are enabled).

    Exposed so non-kernel level loops (the :class:`~repro.core.growth_engine.
    GrowthEngine` growing step) feed the same counters as
    :func:`frontier_expansion`.
    """
    stats = _STATS
    if stats is None:
        return
    stats.levels += 1
    stats.frontier_nodes += int(frontier_size)
    stats.edges_scanned += int(edges_scanned)
    if direction == "pull":
        stats.pull_levels += 1
        stats.edges_scanned_pull += int(edges_scanned)
    else:
        stats.push_levels += 1
        stats.edges_scanned_push += int(edges_scanned)


if os.environ.get("REPRO_KERNEL_STATS", "") not in ("", "0"):
    enable_kernel_stats(True)


# --------------------------------------------------------------------------- #
# Gather / claim primitives
# --------------------------------------------------------------------------- #
def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized adjacency gather for a batch of ``nodes``.

    Returns ``(sources, targets, positions)`` where ``targets`` is the
    concatenation of the adjacency slices of ``nodes``, ``sources[i]`` is the
    node whose slice produced ``targets[i]``, and ``positions[i]`` is the
    index of that arc in ``indices`` (so aligned arrays — e.g. edge weights —
    can be gathered with ``weights[positions]``).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    starts = indptr[nodes]
    degrees = indptr[nodes + 1] - starts
    total = int(degrees.sum())
    if total == 0:
        return _EMPTY, _EMPTY, _EMPTY
    # offsets[i] = position of targets[i] within its source's adjacency slice
    cumulative = np.cumsum(degrees)
    block_starts = np.repeat(cumulative - degrees, degrees)
    offsets = np.arange(total, dtype=np.int64) - block_starts
    positions = np.repeat(starts, degrees) + offsets
    return np.repeat(nodes, degrees), indices[positions], positions


class ClaimWorkspace:
    """Reusable scratch arrays enabling the sort-free scatter claims.

    With a workspace, :func:`claim_first` / :func:`claim_min` resolve
    contested targets by scattering emission-order ranks (and keys) into dense
    length-``num_nodes`` scratch arrays instead of sorting the full claim
    list.  The scratch is never cleared between calls — each call only reads
    back positions it just wrote — so one workspace per traversal amortizes
    the allocation across every level.  Target ids must lie in
    ``[0, num_nodes)``.
    """

    __slots__ = ("num_nodes", "rank_scratch", "_key_scratch")

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = int(num_nodes)
        self.rank_scratch = np.empty(self.num_nodes, dtype=np.int64)
        self._key_scratch: Optional[np.ndarray] = None

    @property
    def key_scratch(self) -> np.ndarray:
        """Lazily allocated float64 scratch (only :func:`claim_min` needs it)."""
        if self._key_scratch is None:
            self._key_scratch = np.empty(self.num_nodes, dtype=np.float64)
        return self._key_scratch


def claim_first(
    dst: np.ndarray, src: np.ndarray, *, workspace: Optional[ClaimWorkspace] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep the first claim per target in the concatenated adjacency scan.

    Returns ``(targets, parents)`` with one entry per distinct target; the
    surviving parent is the first occurrence in emission order, which is the
    arbitrary-but-deterministic tie-break of the paper's Algorithm 1 (and of
    multi-source BFS).

    Without ``workspace`` this runs the original stable-``argsort`` selection
    (the frozen reference: ``O(E log E)`` per level).  With a
    :class:`ClaimWorkspace` the same winners are selected sort-free: writing
    ranks through fancy assignment in *reverse* order leaves each target
    holding its first claimant's rank (NumPy keeps the last write per index),
    and only the distinct winners — not the whole claim list — are sorted.
    Both paths return bit-identical arrays.
    """
    if workspace is None:
        if _STATS is not None:
            _STATS.claims_sorted += 1
        order = np.argsort(dst, kind="stable")
        dst_sorted = dst[order]
        src_sorted = src[order]
        first = np.ones(dst_sorted.size, dtype=bool)
        first[1:] = dst_sorted[1:] != dst_sorted[:-1]
        return dst_sorted[first], src_sorted[first]
    if _STATS is not None:
        _STATS.claims_scatter += 1
    count = dst.size
    if count == 0:
        return dst[:0], src[:0]
    rank = np.arange(count, dtype=np.int64)
    scratch = workspace.rank_scratch
    scratch[dst[::-1]] = rank[::-1]
    winners = scratch[dst] == rank
    targets = dst[winners]
    parents = src[winners]
    order = np.argsort(targets)
    return targets[order], parents[order]


def claim_min(
    dst: np.ndarray,
    src: np.ndarray,
    key: np.ndarray,
    *,
    workspace: Optional[ClaimWorkspace] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep, per target, the claim with the smallest ``key``.

    Returns ``(targets, parents, keys)``; ties on the key fall back to the
    stable gather order.  This is the min-weight tie-break of the weighted
    decomposition and the bucket-relaxation step of :func:`delta_stepping`.

    Without ``workspace`` this runs the original ``lexsort`` selection (the
    frozen reference).  With a :class:`ClaimWorkspace` the per-target minimum
    key is found with ``np.minimum.at`` into the key scratch, and key ties
    are resolved to the *first* emission (the lexsort tie-break) with the
    same reverse-rank scatter as :func:`claim_first` — bit-identical output,
    no sort over the claim list.  ``key`` must be float (NaN-free), as every
    caller's accumulated distances are.
    """
    if workspace is None:
        if _STATS is not None:
            _STATS.claims_sorted += 1
        order = np.lexsort((key, dst))
        dst_sorted = dst[order]
        first = np.ones(dst_sorted.size, dtype=bool)
        first[1:] = dst_sorted[1:] != dst_sorted[:-1]
        return dst_sorted[first], src[order][first], key[order][first]
    if _STATS is not None:
        _STATS.claims_scatter += 1
    count = dst.size
    if count == 0:
        return dst[:0], src[:0], key[:0]
    rank = np.arange(count, dtype=np.int64)
    key_scratch = workspace.key_scratch
    key_scratch[dst] = np.inf
    np.minimum.at(key_scratch, dst, key)
    is_min = key == key_scratch[dst]
    min_dst = dst[is_min]
    min_rank = rank[is_min]
    rank_scratch = workspace.rank_scratch
    rank_scratch[min_dst[::-1]] = min_rank[::-1]
    winners = rank_scratch[min_dst] == min_rank
    targets = min_dst[winners]
    order = np.argsort(targets)
    return targets[order], src[is_min][winners][order], key[is_min][winners][order]


# --------------------------------------------------------------------------- #
# Direction-optimizing expansion
# --------------------------------------------------------------------------- #
def _direction_mode(override: Optional[str]) -> str:
    mode = override if override is not None else os.environ.get("REPRO_BFS_DIRECTION", "auto")
    if mode not in ("auto", "push", "pull"):
        raise ValueError(f"unknown BFS direction {mode!r}; choose 'auto', 'push', or 'pull'")
    return mode


class DirectionOptimizer:
    """Beamer-style push/pull switching state for one level-synchronous run.

    ``status`` is a dense int64 array where ``-1`` marks still-unvisited
    nodes — the BFS ``distances`` array or the growth engine's cluster
    ``assignment``.  The caller keeps mutating it and reports coverage through
    :meth:`on_covered`; the optimizer reads it during pull steps to enumerate
    candidate vertices.

    A level runs *pull* when the frontier's outgoing arcs dominate the arcs
    still incident to unvisited nodes (``m_f · alpha > m_u``) and the frontier
    is a non-trivial fraction of the graph (``|F| · beta > n``); otherwise it
    runs the classic push gather.  The pull winner for a node is its
    neighbour with the *smallest frontier-array position* — exactly the first
    claimant of the push gather — so both directions produce bit-identical
    ``(new_nodes, parents)`` and the choice is purely a performance knob.

    Defaults come from ``REPRO_BFS_DIRECTION`` / ``REPRO_BFS_ALPHA`` /
    ``REPRO_BFS_BETA``; explicit constructor arguments override the
    environment.
    """

    __slots__ = (
        "indptr",
        "indices",
        "status",
        "degrees",
        "num_nodes",
        "mode",
        "alpha",
        "beta",
        "last_direction",
        "frontier_arcs",
        "last_pull_arcs",
        "unvisited_arcs",
        "_pull_list",
        "_frontier_rank",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        status: np.ndarray,
        *,
        degrees: Optional[np.ndarray] = None,
        covered: Optional[np.ndarray] = None,
        direction: Optional[str] = None,
        alpha: Optional[float] = None,
        beta: Optional[float] = None,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.status = status
        self.num_nodes = int(indptr.size - 1)
        self.degrees = np.diff(indptr) if degrees is None else degrees
        self.mode = _direction_mode(direction)
        self.alpha = float(os.environ.get("REPRO_BFS_ALPHA", "4.0")) if alpha is None else float(alpha)
        self.beta = float(os.environ.get("REPRO_BFS_BETA", "24.0")) if beta is None else float(beta)
        if covered is None:
            covered = np.flatnonzero(status != -1)
        self.unvisited_arcs = int(indices.size) - int(self.degrees[covered].sum())
        self.last_direction = "push"
        self.frontier_arcs = 0
        self.last_pull_arcs = 0
        self._pull_list: Optional[np.ndarray] = None
        self._frontier_rank: Optional[np.ndarray] = None

    def choose(self, frontier: np.ndarray) -> str:
        """Pick the direction for the next level (also caches ``m_f``)."""
        self.frontier_arcs = int(self.degrees[frontier].sum())
        if self.mode == "auto":
            direction = (
                "pull"
                if (
                    self.frontier_arcs * self.alpha > self.unvisited_arcs
                    and frontier.size * self.beta > self.num_nodes
                )
                else "push"
            )
        else:
            direction = self.mode
        if direction != self.last_direction:
            self.last_direction = direction
            if _STATS is not None:
                _STATS.direction_switches += 1
        return direction

    def pull_expand(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One pull level: ``(new_nodes, parents)``, bit-identical to push.

        Iterates the still-unvisited vertices (an incrementally filtered
        candidate list — it only ever shrinks, so it stays valid across
        intervening push levels), gathers their neighbours once, and takes a
        per-candidate ``minimum.reduceat`` over frontier ranks.  Candidates
        whose best rank is the sentinel have no frontier neighbour.
        ``new_nodes`` comes out sorted ascending, matching the push claim.
        """
        if self._pull_list is None:
            self._pull_list = np.flatnonzero(self.status == -1)
        else:
            self._pull_list = self._pull_list[self.status[self._pull_list] == -1]
        candidate_deg = self.degrees[self._pull_list]
        has_arcs = candidate_deg > 0
        candidates = self._pull_list[has_arcs]
        if candidates.size == 0:
            self.last_pull_arcs = 0
            return _EMPTY, _EMPTY
        if self._frontier_rank is None:
            self._frontier_rank = np.full(self.num_nodes, _NO_RANK, dtype=np.int64)
        frontier_rank = self._frontier_rank
        frontier_rank[frontier] = np.arange(frontier.size, dtype=np.int64)
        _, neighbors, _ = gather_neighbors(self.indptr, self.indices, candidates)
        segment_starts = np.concatenate(([0], np.cumsum(candidate_deg[has_arcs])))[:-1]
        best = np.minimum.reduceat(frontier_rank[neighbors], segment_starts)
        frontier_rank[frontier] = _NO_RANK
        self.last_pull_arcs = int(neighbors.size)
        hit = best < _NO_RANK
        return candidates[hit], frontier[best[hit]]

    def on_covered(self, nodes: np.ndarray) -> None:
        """Report newly covered nodes (keeps the ``m_u`` heuristic input exact)."""
        self.unvisited_arcs -= int(self.degrees[nodes].sum())


# --------------------------------------------------------------------------- #
# Level-synchronous BFS and derived utilities
# --------------------------------------------------------------------------- #
def frontier_expansion(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    *,
    max_depth: Optional[int] = None,
    on_level: Optional[Callable[[np.ndarray], None]] = None,
    degrees: Optional[np.ndarray] = None,
    direction: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Level-synchronous multi-source BFS (direction-optimizing).

    Returns ``(distances, owners, num_levels)``: hop distances (``-1`` when
    unreached), the source whose tree claimed each node (``-1`` when
    unreached; ties within a level resolved by :func:`claim_first`), and the
    number of productive expansion rounds.  ``sources`` must be unique and in
    range (callers validate).  ``on_level`` is invoked with the current
    frontier at the start of every expansion attempt — including a final
    fruitless one — which is exactly the per-round accounting hook the
    MR-metered BFS drivers need.

    Each level runs either as a push gather + sort-free claim or as a
    :meth:`DirectionOptimizer.pull_expand` scan over unvisited vertices; the
    two are bit-identical, so ``direction`` (default: ``REPRO_BFS_DIRECTION``
    / auto) only affects speed.  Pass the graph's cached ``degrees`` to skip
    the per-call ``np.diff``.
    """
    n = indptr.size - 1
    distances = np.full(n, -1, dtype=np.int64)
    owners = np.full(n, -1, dtype=np.int64)
    if sources.size == 0:
        return distances, owners, 0
    distances[sources] = 0
    owners[sources] = sources
    frontier = sources
    level = 0
    optimizer = DirectionOptimizer(indptr, indices, distances, degrees=degrees, covered=sources, direction=direction)
    workspace = ClaimWorkspace(n)
    while frontier.size and (max_depth is None or level < max_depth):
        if on_level is not None:
            on_level(frontier)
        step_direction = optimizer.choose(frontier)
        if step_direction == "pull":
            new_nodes, parents = optimizer.pull_expand(frontier)
            record_level_stats("pull", frontier.size, optimizer.last_pull_arcs)
        else:
            src, dst, _ = gather_neighbors(indptr, indices, frontier)
            record_level_stats("push", frontier.size, dst.size)
            if dst.size == 0:
                break
            unvisited = distances[dst] == -1
            dst = dst[unvisited]
            src = src[unvisited]
            if dst.size == 0:
                break
            new_nodes, parents = claim_first(dst, src, workspace=workspace)
        if new_nodes.size == 0:
            break
        level += 1
        distances[new_nodes] = level
        owners[new_nodes] = owners[parents]
        optimizer.on_covered(new_nodes)
        frontier = new_nodes
    return distances, owners, level


def component_labels(indptr: np.ndarray, indices: np.ndarray, *, degrees: Optional[np.ndarray] = None) -> np.ndarray:
    """Connected-component labels via successive frontier sweeps.

    ``labels[v]`` lies in ``0..c-1``; component ids are assigned in increasing
    order of their smallest node.  Each component costs one level-synchronous
    sweep over its own edges, so the total work is ``O(n + m)``.  Frontier
    deduplication is sort-free (last-write scatter into a shared scratch);
    only the distinct new nodes of each level are sorted.
    """
    n = indptr.size - 1
    labels = -np.ones(n, dtype=np.int64)
    if n == 0:
        return labels
    if degrees is None:
        degrees = np.diff(indptr)
    scratch = np.empty(n, dtype=np.int64)
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = current
        if degrees[start]:
            frontier = np.asarray([start], dtype=np.int64)
            while frontier.size:
                _, targets, _ = gather_neighbors(indptr, indices, frontier)
                if targets.size == 0:
                    break
                fresh = targets[labels[targets] < 0]
                if fresh.size == 0:
                    break
                labels[fresh] = current
                rank = np.arange(fresh.size, dtype=np.int64)
                scratch[fresh] = rank
                frontier = np.sort(fresh[scratch[fresh] == rank])
        current += 1
    return labels


# --------------------------------------------------------------------------- #
# Bit-parallel multi-source BFS
# --------------------------------------------------------------------------- #
def msbfs_batch_size() -> int:
    """Sources advanced per bit-parallel sweep (``REPRO_MSBFS_BATCH``, ≥ 1)."""
    return max(1, int(os.environ.get("REPRO_MSBFS_BATCH", "256")))


def _msbfs_sweep(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    degrees: np.ndarray,
    max_depth: Optional[int],
    on_new: Callable[[int, np.ndarray, np.ndarray], None],
) -> int:
    """Core bit-parallel OR sweep: 64 sources per ``uint64`` word.

    ``visited`` / frontier bits are ``(n, words)`` matrices; a level ORs the
    frontier bits along every arc into each target and keeps the bits not yet
    visited.  Levels run push (gather frontier rows, group by target, one
    ``bitwise_or.reduceat``) or pull (gather the not-yet-finished rows and
    reduce their neighbours' frontier bits), switched by the same alpha/beta
    heuristic as :class:`DirectionOptimizer`; BFS distances are direction-
    independent, so the result is exact either way.

    ``on_new(level, rows, new_bits)`` is called once per productive level with
    the rows that gained bits and their ``(len(rows), words)`` newly set bit
    matrix.  Returns the number of productive levels.
    """
    n = indptr.size - 1
    count = sources.size
    if count == 0 or n == 0:
        return 0
    words = (count + _WORD_BITS - 1) // _WORD_BITS
    full = np.full(words, _ALL_ONES)
    remainder = count % _WORD_BITS
    if remainder:
        full[-1] = (np.uint64(1) << np.uint64(remainder)) - np.uint64(1)
    visited = np.zeros((n, words), dtype=np.uint64)
    word_of = (np.arange(count) // _WORD_BITS).astype(np.int64)
    bit_of = np.uint64(1) << (np.arange(count, dtype=np.uint64) % np.uint64(_WORD_BITS))
    np.bitwise_or.at(visited, (sources, word_of), bit_of)
    frontier_bits = visited.copy()
    frontier_rows = np.unique(sources)
    mode = _direction_mode(None)
    alpha = float(os.environ.get("REPRO_BFS_ALPHA", "4.0"))
    unvisited_arcs = int(indices.size)
    seeded_full = frontier_rows[(visited[frontier_rows] == full).all(axis=1)]
    if seeded_full.size:
        unvisited_arcs -= int(degrees[seeded_full].sum())
    unfinished: Optional[np.ndarray] = None
    level = 0
    if _STATS is not None:
        _STATS.msbfs_sweeps += 1
    while frontier_rows.size and (max_depth is None or level < max_depth):
        frontier_arcs = int(degrees[frontier_rows].sum())
        if mode == "auto":
            pull = frontier_arcs * alpha > unvisited_arcs
        else:
            pull = mode == "pull"
        if pull:
            if unfinished is None:
                unfinished = np.flatnonzero((visited != full).any(axis=1))
            else:
                unfinished = unfinished[(visited[unfinished] != full).any(axis=1)]
            candidate_deg = degrees[unfinished]
            has_arcs = candidate_deg > 0
            rows = unfinished[has_arcs]
            if rows.size == 0:
                break
            _, neighbors, _ = gather_neighbors(indptr, indices, rows)
            segment_starts = np.concatenate(([0], np.cumsum(candidate_deg[has_arcs])))[:-1]
            orred = np.bitwise_or.reduceat(frontier_bits[neighbors], segment_starts, axis=0)
            scanned = int(neighbors.size)
        else:
            src, dst, _ = gather_neighbors(indptr, indices, frontier_rows)
            if dst.size == 0:
                break
            order = np.argsort(dst)
            dst_sorted = dst[order]
            segment_starts = np.concatenate(([0], np.flatnonzero(dst_sorted[1:] != dst_sorted[:-1]) + 1))
            orred = np.bitwise_or.reduceat(frontier_bits[src[order]], segment_starts, axis=0)
            rows = dst_sorted[segment_starts]
            scanned = int(dst.size)
        new_bits = orred & ~visited[rows]
        gained = new_bits.any(axis=1)
        rows = rows[gained]
        new_bits = new_bits[gained]
        if _STATS is not None:
            _STATS.msbfs_levels += 1
            _STATS.msbfs_edges_scanned += scanned
        if rows.size == 0:
            break
        level += 1
        visited[rows] |= new_bits
        newly_finished = rows[(visited[rows] == full).all(axis=1)]
        if newly_finished.size:
            unvisited_arcs -= int(degrees[newly_finished].sum())
        frontier_bits[frontier_rows] = 0
        frontier_bits[rows] = new_bits
        frontier_rows = rows
        on_new(level, rows, new_bits)
    return level


def msbfs_levels(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    *,
    degrees: Optional[np.ndarray] = None,
    max_depth: Optional[int] = None,
) -> np.ndarray:
    """Bit-parallel multi-source BFS distances: one sweep, 64 sources per word.

    Returns an ``(len(sources), n)`` int64 matrix whose row ``j`` holds the
    hop distances from ``sources[j]`` (``-1`` when unreached) — bit-identical
    to ``len(sources)`` independent :func:`frontier_expansion` runs, at the
    cost of a single OR sweep over the graph.  Callers wanting bounded memory
    chunk their sources (see :func:`msbfs_batch_size`); the matrix rows stay
    aligned with the given source order, duplicates included.
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = indptr.size - 1
    dist = np.full((sources.size, n), -1, dtype=np.int64)
    if sources.size == 0 or n == 0:
        return dist
    if degrees is None:
        degrees = np.diff(indptr)
    dist[np.arange(sources.size), sources] = 0

    def on_new(level: int, rows: np.ndarray, new_bits: np.ndarray) -> None:
        bits = np.unpackbits(new_bits.view(np.uint8), axis=1, bitorder="little")
        row_pos, source_pos = np.nonzero(bits[:, : sources.size])
        dist[source_pos, rows[row_pos]] = level

    _msbfs_sweep(indptr, indices, sources, degrees, max_depth, on_new)
    return dist


def eccentricities(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    *,
    degrees: Optional[np.ndarray] = None,
    method: str = "auto",
    batch: Optional[int] = None,
) -> np.ndarray:
    """Hop eccentricity of every node in ``sources`` within its component.

    ``method="msbfs"`` (the ``"auto"`` default for more than one source) runs
    the bit-parallel sweep in batches of ``batch`` (default
    :func:`msbfs_batch_size`) sources, tracking only the last level at which
    each source's bit column grew — no per-source Python BFS loop and no
    ``(S, n)`` distance matrix.  ``method="loop"`` keeps the original
    one-BFS-per-source path as the frozen bit-identical reference (isolated
    nodes report 0 in both).
    """
    sources = np.asarray(sources, dtype=np.int64)
    if method not in ("auto", "msbfs", "loop"):
        raise ValueError(f"unknown eccentricities method {method!r}")
    if method == "loop" or (method == "auto" and sources.size <= 1):
        return _eccentricities_loop(indptr, indices, sources, degrees=degrees)
    if degrees is None:
        degrees = np.diff(indptr)
    if batch is None:
        batch = msbfs_batch_size()
    batch = max(1, int(batch))
    out = np.zeros(sources.size, dtype=np.int64)
    for lo in range(0, sources.size, batch):
        chunk = sources[lo : lo + batch]
        ecc_chunk = out[lo : lo + chunk.size]

        def on_new(level: int, rows: np.ndarray, new_bits: np.ndarray) -> None:
            column = np.bitwise_or.reduce(new_bits, axis=0)
            grew = np.unpackbits(column.view(np.uint8), bitorder="little")[: ecc_chunk.size]
            ecc_chunk[grew.astype(bool)] = level

        _msbfs_sweep(indptr, indices, chunk, degrees, None, on_new)
    return out


def _eccentricities_loop(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    *,
    degrees: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One BFS per source — the pre-msbfs reference implementation."""
    out = np.zeros(sources.size, dtype=np.int64)
    for i, source in enumerate(sources):
        distances, _, _ = frontier_expansion(indptr, indices, np.asarray([source], dtype=np.int64), degrees=degrees)
        reached = distances[distances >= 0]
        out[i] = int(reached.max()) if reached.size else 0
    return out


# --------------------------------------------------------------------------- #
# Weighted relaxation kernels
# --------------------------------------------------------------------------- #
def delta_stepping(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    sources: np.ndarray,
    *,
    delta: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact multi-source weighted shortest paths via bucketed relaxation.

    A delta-stepping-style schedule: tentative distances are grouped into
    buckets of width ``delta``; the lowest non-empty bucket is relaxed to a
    fixpoint (vectorized gather + :func:`claim_min` per inner round) before
    the next bucket opens.  Edge weights are strictly positive, so once a
    bucket reaches its fixpoint every node settled in it is final — the
    result is *exact* shortest paths, identical to Dijkstra, with the hot
    loop running over whole frontiers instead of one heap pop per node (and
    the per-round claim resolved sort-free through a shared
    :class:`ClaimWorkspace`).

    Returns ``(distances, owners)``: ``float64`` distances (``inf`` when
    unreachable) and the source whose shortest-path tree contains each node
    (``-1`` when unreachable).
    """
    n = indptr.size - 1
    dist = np.full(n, np.inf)
    owner = np.full(n, -1, dtype=np.int64)
    if sources.size == 0 or n == 0:
        return dist, owner
    dist[sources] = 0.0
    owner[sources] = sources
    if indices.size == 0:
        return dist, owner
    if delta is None:
        # Bucket width of the order of the mean edge weight keeps the number
        # of buckets near (weighted diameter / mean weight) while bounding
        # the re-relaxation work inside each bucket.
        delta = float(weights.mean()) or 1.0
    delta = max(float(delta), np.finfo(np.float64).tiny)
    workspace = ClaimWorkspace(n)
    settled = np.zeros(n, dtype=bool)
    while True:
        open_mask = np.isfinite(dist) & ~settled
        if not np.any(open_mask):
            break
        lowest = dist[open_mask].min()
        boundary = (np.floor(lowest / delta) + 1.0) * delta
        if boundary <= lowest:
            # The product can round onto ``lowest`` itself (delta = 18/7,
            # lowest = 18): the bucket would be empty and never advance.
            boundary = np.nextafter(lowest, np.inf)
        frontier = np.flatnonzero(open_mask & (dist < boundary))
        while frontier.size:
            settled[frontier] = True
            src, dst, pos = gather_neighbors(indptr, indices, frontier)
            if dst.size == 0:
                break
            candidate = dist[src] + weights[pos]
            improving = candidate < dist[dst]
            if not np.any(improving):
                break
            # claim_min's keys are minima of already-improving candidates and
            # dist is untouched in between, so every claim wins: apply directly.
            targets, parents, keys = claim_min(
                dst[improving], src[improving], candidate[improving], workspace=workspace
            )
            dist[targets] = keys
            owner[targets] = owner[parents]
            # Re-open improved nodes; those still inside the current bucket
            # are relaxed again this phase, the rest wait for their bucket.
            settled[targets] = False
            frontier = targets[dist[targets] < boundary]
    return dist, owner


def hop_bounded_relaxation(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    sources: np.ndarray,
    *,
    max_hops: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level-synchronous Bellman–Ford: min weighted distance over ≤ h hops.

    Each round relaxes every arc leaving the nodes improved in the previous
    round (one parallel round per hop), so after round ``h`` every node holds
    the minimum weighted length over paths with at most ``h`` edges — the
    relaxation pattern underlying the §7 hop-bounded weighted decomposition.
    With ``max_hops=None`` the rounds run to a fixpoint, which yields exact
    shortest paths (at a higher cost than :func:`delta_stepping`).

    Returns ``(distances, owners, hops)`` where ``hops[v]`` is the round in
    which ``v`` received its final distance (0 for sources, -1 unreached).
    """
    n = indptr.size - 1
    dist = np.full(n, np.inf)
    owner = np.full(n, -1, dtype=np.int64)
    hops = np.full(n, -1, dtype=np.int64)
    if sources.size == 0 or n == 0:
        return dist, owner, hops
    dist[sources] = 0.0
    owner[sources] = sources
    hops[sources] = 0
    workspace = ClaimWorkspace(n)
    frontier = sources
    round_index = 0
    while frontier.size and (max_hops is None or round_index < max_hops):
        src, dst, pos = gather_neighbors(indptr, indices, frontier)
        if dst.size == 0:
            break
        candidate = dist[src] + weights[pos]
        improving = candidate < dist[dst]
        if not np.any(improving):
            break
        # As in delta_stepping: claimed keys always beat dist, apply directly.
        targets, parents, keys = claim_min(dst[improving], src[improving], candidate[improving], workspace=workspace)
        round_index += 1
        dist[targets] = keys
        owner[targets] = owner[parents]
        hops[targets] = round_index
        frontier = targets
    return dist, owner, hops


# --------------------------------------------------------------------------- #
# Whole-graph neighbour reductions
# --------------------------------------------------------------------------- #
def reduce_segments(indptr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Precompute :func:`neighbor_reduce` segment metadata for ``indptr``.

    Returns ``(has_neighbors, segment_starts)``.  Both arrays depend only on
    the graph structure, so iterative callers (HADI runs one reduction per
    round) hoist this out of their loop and pass the result back in.
    """
    has_neighbors = np.diff(indptr) > 0
    return has_neighbors, indptr[:-1][has_neighbors]


def neighbor_reduce(
    indptr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    ufunc: np.ufunc,
    *,
    segments: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce every node's neighbour values with ``ufunc`` (e.g. bitwise OR).

    ``values`` is indexed by node id along axis 0; the reduction gathers
    ``values[indices]`` and applies ``ufunc.reduceat`` per adjacency slice.
    Returns ``(has_neighbors, reduced)`` where ``reduced`` holds one row per
    node *with* neighbours (zero-degree nodes are excluded so the ``reduceat``
    segment boundaries stay exact).  This full-frontier gather is one parallel
    round shuffling a value along every arc — the HADI/ANF iteration.

    ``segments`` takes a precomputed :func:`reduce_segments` result so
    repeated reductions over the same graph skip the per-call O(n) setup.
    """
    has_neighbors, segment_starts = reduce_segments(indptr) if segments is None else segments
    if segment_starts.size == 0:
        return has_neighbors, values[:0]
    gathered = values[indices]
    return has_neighbors, ufunc.reduceat(gathered, segment_starts, axis=0)
