"""Shared vectorized frontier kernels over raw CSR arrays.

Every traversal in the library — unweighted BFS, disjoint cluster growing,
connected components and exact weighted shortest paths — is built from the
same handful of array operations: gather the adjacency blocks of a frontier,
resolve one claim per contested target, and iterate level-synchronously.
This module implements those operations exactly once, on raw ``indptr`` /
``indices`` (/ ``weights``) arrays so that :class:`~repro.graph.csr.CSRGraph`,
the weighted subclass, the :class:`~repro.core.growth_engine.GrowthEngine`
policies, and the quotient graph machinery can all share them without import
cycles.  Each job has one implementation here; the frozen references they are
pinned against (sorted claims, one BFS per source) live with the tests.

Kernel families
---------------
* :func:`gather_neighbors` — the frontier-expansion gather primitive (also
  returns the arc *positions* so weighted callers can align edge weights).
* :func:`claim_first` / :func:`claim_min` — keep exactly one claimant per
  contested target (the arbitrary and the min-key tie-break, respectively).
  Both run *sort-free* through a :class:`ClaimWorkspace`: winners are
  selected by scattering emission-order ranks (and keys) into dense scratch
  arrays instead of sorting the whole claim list per level.
* :func:`frontier_expansion` — level-synchronous multi-source BFS with owner
  tracking and an optional per-level hook (used by the MR-metered BFS).  The
  expansion is *direction-optimizing*: a :class:`DirectionOptimizer` switches
  each level between the classic push gather and a pull step that scans
  still-unvisited vertices against the frontier (Beamer-style heuristic with
  the fixed thresholds ``_PULL_ALPHA`` / ``_PULL_BETA``), with pull winners
  replicated via min-frontier-rank so the outputs are bit-identical in
  either direction.
* :func:`msbfs_levels` — bit-parallel multi-source BFS advancing 64 sources
  per ``uint64`` word with HADI-style OR sweeps; backs :func:`eccentricities`,
  the quotient APSP of the distance oracle, and the serving plane's
  per-cluster eccentricity bounds.
* :func:`component_labels` / :func:`eccentricities` — BFS-derived utilities.
* :func:`delta_stepping` — bucketed relaxation computing *exact* weighted
  shortest paths (the vectorized replacement for per-node binary-heap
  Dijkstra loops); :func:`delta_stepping_rows` runs the same bucket loop for
  a tile of sources at once (one distance row each), the weighted analogue
  of :func:`msbfs_levels` behind the quotient APSP and diameter.

Observability
-------------
``REPRO_KERNEL_STATS=1`` (or :func:`enable_kernel_stats`) turns on lightweight
aggregate counters — levels by direction, frontier sizes, edges scanned,
direction switches, claim and msbfs activity — readable via
:func:`kernel_stats_snapshot` and surfaced in the pipeline stage timings and
the kernel benchmark JSON.
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
    "MSBFS_TILE",
    "delta_stepping",
    "delta_stepping_rows",
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

#: Beamer's push/pull thresholds: a level runs pull when the frontier's arcs
#: times ``_PULL_ALPHA`` exceed the arcs still incident to unvisited nodes and
#: the frontier size times ``_PULL_BETA`` exceeds ``n`` (the msbfs sweep uses
#: only the arc test).  Both directions give bit-identical results, so these
#: only trade speed.
_PULL_ALPHA = 4.0
_PULL_BETA = 24.0

#: Sources per bit-parallel sweep in :func:`eccentricities` and the quotient
#: layer's hop tiles; bounds the live ``(n, MSBFS_TILE / 64)`` word matrices.
MSBFS_TILE = 256


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
    """Reusable scratch arrays of the sort-free scatter claims.

    :func:`claim_first` / :func:`claim_min` resolve contested targets by
    scattering emission-order ranks (and keys) into dense length-``num_nodes``
    scratch arrays instead of sorting the full claim list.  The scratch is
    never cleared between calls — each call only reads back positions it just
    wrote — so one workspace per traversal amortizes the allocation across
    every level.  Target ids must lie in ``[0, num_nodes)``.
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


def claim_first(dst: np.ndarray, src: np.ndarray, *, workspace: ClaimWorkspace) -> Tuple[np.ndarray, np.ndarray]:
    """Keep the first claim per target in the concatenated adjacency scan.

    Returns ``(targets, parents)`` with one entry per distinct target, sorted
    by target; the surviving parent is the first occurrence in emission
    order, which is the arbitrary-but-deterministic tie-break of the paper's
    Algorithm 1 (and of multi-source BFS).

    Writing ranks through fancy assignment in *reverse* order leaves each
    target holding its first claimant's rank (NumPy keeps the last write per
    index), so only the distinct winners — not the whole claim list — are
    sorted.
    """
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
    workspace: ClaimWorkspace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep, per target, the claim with the smallest ``key``.

    Returns ``(targets, parents, keys)`` sorted by target; ties on the key
    fall back to the first emission.  This is the min-weight tie-break of the
    weighted decomposition and the bucket-relaxation step of
    :func:`delta_stepping`.

    The per-target minimum key is found with ``np.minimum.at`` into the key
    scratch, and key ties are resolved to the first emission with the same
    reverse-rank scatter as :func:`claim_first` — no sort over the claim
    list.  ``key`` must be float (NaN-free), as every caller's accumulated
    distances are.
    """
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
class DirectionOptimizer:
    """Beamer-style push/pull switching state for one level-synchronous run.

    ``status`` is a dense int64 array where ``-1`` marks still-unvisited
    nodes — the BFS ``distances`` array or the growth engine's cluster
    ``assignment``.  The caller keeps mutating it and reports coverage through
    :meth:`on_covered`; the optimizer reads it during pull steps to enumerate
    candidate vertices.

    A level runs *pull* when the frontier's outgoing arcs dominate the arcs
    still incident to unvisited nodes (``m_f · _PULL_ALPHA > m_u``) and the
    frontier is a non-trivial fraction of the graph (``|F| · _PULL_BETA >
    n``); otherwise it runs the classic push gather.  The pull winner for a
    node is its neighbour with the *smallest frontier-array position* —
    exactly the first claimant of the push gather — so both directions
    produce bit-identical ``(new_nodes, parents)`` and the choice only
    affects speed.
    """

    __slots__ = (
        "indptr",
        "indices",
        "status",
        "degrees",
        "num_nodes",
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
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.status = status
        self.num_nodes = int(indptr.size - 1)
        self.degrees = np.diff(indptr) if degrees is None else degrees
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
        pull = self.frontier_arcs * _PULL_ALPHA > self.unvisited_arcs and frontier.size * _PULL_BETA > self.num_nodes
        direction = "pull" if pull else "push"
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
    two are bit-identical, so the per-level choice only affects speed.  Pass
    the graph's cached ``degrees`` to skip the per-call ``np.diff``.
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
    optimizer = DirectionOptimizer(indptr, indices, distances, degrees=degrees, covered=sources)
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
    reduce their neighbours' frontier bits), switched by the arc test of
    :class:`DirectionOptimizer` (``_PULL_ALPHA``); BFS distances are
    direction-independent, so the result is exact either way.

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
        if frontier_arcs * _PULL_ALPHA > unvisited_arcs:
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
    chunk their sources (in tiles of :data:`MSBFS_TILE`); the matrix rows stay
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
) -> np.ndarray:
    """Hop eccentricity of every node in ``sources`` within its component.

    One source runs one :func:`frontier_expansion`.  More run the
    bit-parallel sweep in tiles of :data:`MSBFS_TILE` sources, tracking only
    the last level at which each source's bit column grew — no per-source
    Python BFS loop and no ``(S, n)`` distance matrix.  Isolated nodes report
    0.
    """
    sources = np.asarray(sources, dtype=np.int64)
    out = np.zeros(sources.size, dtype=np.int64)
    if sources.size == 1:
        distances, _, _ = frontier_expansion(indptr, indices, sources, degrees=degrees)
        out[0] = distances.max()
        return out
    if degrees is None:
        degrees = np.diff(indptr)
    tile = MSBFS_TILE
    for lo in range(0, sources.size, tile):
        chunk = sources[lo : lo + tile]
        ecc_chunk = out[lo : lo + chunk.size]

        def on_new(level: int, rows: np.ndarray, new_bits: np.ndarray) -> None:
            column = np.bitwise_or.reduce(new_bits, axis=0)
            grew = np.unpackbits(column.view(np.uint8), bitorder="little")[: ecc_chunk.size]
            ecc_chunk[grew.astype(bool)] = level

        _msbfs_sweep(indptr, indices, chunk, degrees, None, on_new)
    return out


# --------------------------------------------------------------------------- #
# Weighted relaxation kernels
# --------------------------------------------------------------------------- #
def delta_stepping(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    sources: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact multi-source weighted shortest paths via bucketed relaxation.

    A delta-stepping-style schedule: tentative distances are grouped into
    buckets of width δ (the mean edge weight); the lowest non-empty bucket
    is relaxed to a fixpoint (vectorized gather + :func:`claim_min` per inner
    round) before the next bucket opens.  Edge weights are strictly positive, so once a
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
    _relax_buckets(indptr, indices, weights, dist, owner=owner)
    return dist, owner


def delta_stepping_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    sources: np.ndarray,
) -> np.ndarray:
    """Single-source weighted distances from each of ``sources``, one row each.

    Returns an ``(len(sources), n)`` ``float64`` matrix whose row ``j`` is
    bit-identical to ``delta_stepping(indptr, indices, weights,
    [sources[j]])[0]`` (``inf`` when unreached; duplicates give equal rows).
    The rows are relaxed together by one run of the :func:`delta_stepping`
    bucket loop over flat pair ids ``j·n + v`` — a virtual disjoint union of
    ``len(sources)`` copies of the graph, with no union CSR built — so the
    per-round array work covers a whole tile of sources instead of one.

    Any schedule gives the same rows: each is the unique least fixpoint of
    ``d[v] = min_u fl(d[u] + w_uv)``, because ``fl(x + w)`` is monotone in
    ``x`` and every weight is positive.
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = indptr.size - 1
    dist = np.full((sources.size, n), np.inf)
    if sources.size == 0 or n == 0:
        return dist
    dist[np.arange(sources.size), sources] = 0.0
    _relax_buckets(indptr, indices, weights, dist.reshape(-1))
    return dist


def _relax_buckets(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    dist: np.ndarray,
    *,
    owner: Optional[np.ndarray] = None,
) -> None:
    """The Δ-stepping bucket loop behind both weighted shortest-path kernels.

    ``dist`` is a flat view over pair ids ``j·n + v`` (row ``j``, node ``v``)
    holding ``0.0`` at the seeds and ``inf`` elsewhere; it is relaxed in
    place.  Arcs never cross rows, so one row is a single-graph run.
    ``owner`` (one row only) is updated to the source of each node's
    shortest-path tree, with the :func:`claim_min` tie-break.
    """
    n = indptr.size - 1
    if indices.size == 0:
        return
    # Bucket width of the order of the mean edge weight keeps the number of
    # buckets near (weighted diameter / mean weight) while bounding the
    # re-relaxation work inside each bucket.
    delta = max(float(weights.mean()) or 1.0, np.finfo(np.float64).tiny)
    size = dist.size
    degrees = np.diff(indptr)
    workspace = ClaimWorkspace(size)
    settled = np.zeros(size, dtype=bool)
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
            nodes = frontier % n if size > n else frontier
            deg = degrees[nodes]
            ends = np.cumsum(deg)
            total = int(ends[-1])
            if total == 0:
                break
            # The frontier's adjacency slices in scan order (gather_neighbors),
            # shifted into each pair's row.
            pos = np.repeat(indptr[nodes] - (ends - deg), deg) + np.arange(total)
            dst = indices[pos]
            if size > n:
                dst = dst + np.repeat(frontier - nodes, deg)
            candidate = np.repeat(dist[frontier], deg) + weights[pos]
            improving = candidate < dist[dst]
            if not np.any(improving):
                break
            dst = dst[improving]
            if owner is None:
                np.minimum.at(dist, dst, candidate[improving])
                # Distinct improved pairs: the last scatter of each id survives.
                rank = np.arange(dst.size)
                workspace.rank_scratch[dst] = rank
                targets = dst[workspace.rank_scratch[dst] == rank]
            else:
                # claim_min's keys are minima of already-improving candidates
                # and dist is untouched in between, so every claim wins.
                parents = np.repeat(frontier, deg)[improving]
                targets, parents, keys = claim_min(dst, parents, candidate[improving], workspace=workspace)
                dist[targets] = keys
                owner[targets] = owner[parents]
            # Re-open improved nodes; those still inside the current bucket
            # are relaxed again this phase, the rest wait for their bucket.
            settled[targets] = False
            frontier = targets[dist[targets] < boundary]
