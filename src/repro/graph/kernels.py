"""Shared vectorized frontier kernels over raw CSR arrays.

Every traversal in the library — unweighted BFS, disjoint cluster growing,
connected components and exact weighted shortest paths — is built from the
same handful of array operations: gather the adjacency blocks of a frontier,
resolve one claim per contested target, and iterate level-synchronously.
This module implements those operations exactly once, on raw ``indptr`` /
``indices`` (/ ``weights``) arrays so that :class:`~repro.graph.csr.CSRGraph`,
the :class:`~repro.core.growth_engine.GrowthEngine`, and the quotient graph
machinery can all share them without import cycles.  Each job has one
implementation here; the frozen references they are pinned against (sorted
claims, one BFS per source, the old edge-list fold) live with the tests.

Kernel families
---------------
* :func:`min_per_key` — the one fold of an edge multiset: sorted distinct
  packed keys and the minimum value per key.  Every CSR build runs it:
  ``CSRGraph.from_edges``, streamed ingestion's chunks and run merge, the
  quotient build and the Erdős–Rényi pair dedupe.
  :func:`pairs_to_csr` mirrors distinct pairs into both arcs and puts them
  in CSR order with the same fold.
* :func:`gather_neighbors` — the frontier-expansion gather primitive (also
  returns the arc *positions* so weighted callers can align edge weights).
* :func:`claim_first` / :func:`claim_min` — keep exactly one claimant per
  contested target (the arbitrary and the min-key tie-break, respectively).
  Both run *sort-free* through a :class:`ClaimWorkspace`: winners are
  selected by scattering emission-order ranks (and keys) into dense scratch
  arrays instead of sorting the whole claim list per level.
* :func:`frontier_expansion` — level-synchronous multi-source BFS with owner
  tracking.  Each level is one :meth:`DirectionOptimizer.expand`, which
  switches between the classic push gather and a pull step that scans
  still-unvisited vertices against the frontier (Beamer-style heuristic with
  the fixed thresholds ``_PULL_ALPHA`` / ``_PULL_BETA``), with pull winners
  replicated via min-frontier-rank so the outputs are bit-identical in
  either direction.  The growth engine's unweighted growing step is the same
  ``expand`` call.
* :func:`component_labels` — connected-component labels by frontier sweeps.
* :func:`delta_stepping` — bucketed relaxation computing *exact* weighted
  shortest paths (the vectorized replacement for per-node binary-heap
  Dijkstra loops); :func:`delta_stepping_rows` runs the same bucket loop for
  a tile of sources at once (one distance row each).
* :func:`msbfs_levels` — the hop twin of :func:`delta_stepping_rows`: one
  level-synchronous BFS over flat pair ids ``j·n + v`` computes a hop
  distance row per source.
* :func:`distance_rows` — hop or weighted distance rows for a tile of
  :func:`row_tile` sources as one ``float64`` matrix, behind the quotient
  APSP and every exact diameter.

Observability
-------------
``REPRO_KERNEL_STATS=1`` (or :func:`enable_kernel_stats`) turns on lightweight
aggregate counters — levels by direction, frontier sizes, edges scanned,
direction switches, claim and hop-row (``msbfs_*``) activity — readable via
:func:`kernel_stats_snapshot` and surfaced in the pipeline stage timings and
the kernel benchmark JSON.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "min_per_key",
    "pairs_to_csr",
    "gather_neighbors",
    "ClaimWorkspace",
    "claim_first",
    "claim_min",
    "DirectionOptimizer",
    "frontier_expansion",
    "component_labels",
    "delta_stepping",
    "delta_stepping_rows",
    "msbfs_levels",
    "distance_rows",
    "row_tile",
    "enable_kernel_stats",
    "kernel_stats_enabled",
    "kernel_stats_snapshot",
    "record_level_stats",
]

_EMPTY = np.zeros(0, dtype=np.int64)

#: int64 sentinel marking "no frontier neighbour" in the pull-mode rank scan.
_NO_RANK = np.iinfo(np.int64).max

#: Beamer's push/pull thresholds: a level runs pull when the frontier's arcs
#: times ``_PULL_ALPHA`` exceed the arcs still incident to unvisited nodes and
#: the frontier size times ``_PULL_BETA`` exceeds ``n``.  Both directions give
#: bit-identical results, so these only trade speed.
_PULL_ALPHA = 4.0
_PULL_BETA = 24.0

#: Source-by-arc budget of one :func:`row_tile`: in a sweep of 2^14 to 2^19
#: (EXPERIMENTS.md), 2^16 was the fastest on dense R-MAT quotients.
_TILE_ARCS = 1 << 16


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
        # msbfs_levels calls, levels and scanned (source, arc) pairs
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


def record_level_stats(direction: str, frontier_size: int, edges_scanned: int) -> None:
    """Record one frontier level (no-op unless stats are enabled).

    Exposed so the :class:`~repro.core.growth_engine.GrowthEngine`'s
    weighted growing step feeds the same counters as
    :meth:`DirectionOptimizer.expand`.
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
# Edge-multiset fold
# --------------------------------------------------------------------------- #
def _heads(sorted_keys: np.ndarray) -> np.ndarray:
    """Positions of the first entry of each run of a non-empty sorted array."""
    return np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))


def min_per_key(keys: np.ndarray, values: Optional[np.ndarray]) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Sorted distinct non-negative ``int64`` ``keys`` and the minimum ``values`` per key.

    Without values the keys are sorted as they are.  Non-negative integer
    values ride in the low digits of one packed ``int64`` (a plain sort is
    several times faster than an argsort) when the packed keys fit; other
    values take an argsort by key and a segment minimum.  The minimum does
    not depend on the order of equal keys, so no sort needs to be stable.
    """
    if keys.size == 0:
        return keys, values
    if values is None:
        keys = np.sort(keys)
        return keys[_heads(keys)], None
    span = int(values.max()) + 1
    if values.dtype.kind == "i" and int(values.min()) >= 0 and int(keys.max()) < np.iinfo(np.int64).max // span:
        packed = np.sort(keys * span + values)
        keys = packed // span
        heads = _heads(keys)
        return keys[heads], packed[heads] % span
    order = np.argsort(keys)
    keys = keys[order]
    heads = _heads(keys)
    return keys[heads], np.minimum.reduceat(values[order], heads)


def pairs_to_csr(
    lo: np.ndarray, hi: np.ndarray, values: Optional[np.ndarray], num_nodes: int
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """``(indptr, indices, values)`` of the undirected graph on distinct pairs.

    Each pair ``(lo[i], hi[i])`` becomes both of its arcs, carrying
    ``values[i]``; :func:`min_per_key` over ``source · n + target`` puts the
    arcs in CSR order (by source, then target).
    """
    n = np.int64(num_nodes)
    arcs, values = min_per_key(
        np.concatenate((lo * n + hi, hi * n + lo)),
        None if values is None else np.concatenate((values, values)),
    )
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(lo, minlength=num_nodes) + np.bincount(hi, minlength=num_nodes), out=indptr[1:])
    return indptr, arcs % n, values


# --------------------------------------------------------------------------- #
# Gather / claim primitives
# --------------------------------------------------------------------------- #
def _arc_positions(indptr: np.ndarray, nodes: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Positions in ``indices`` of the adjacency slices of a non-empty
    ``nodes`` batch (``degrees`` theirs), concatenated in batch order."""
    ends = np.cumsum(degrees)
    return np.repeat(indptr[nodes] - (ends - degrees), degrees) + np.arange(ends[-1])


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
    degrees = indptr[nodes + 1] - indptr[nodes]
    positions = _arc_positions(indptr, nodes, degrees)
    if positions.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
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
    :meth:`on_covered`; :meth:`expand` reads it to drop claims on visited
    nodes and, in pull steps, to enumerate candidate vertices.

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
        "workspace",
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
        self.workspace = ClaimWorkspace(self.num_nodes)
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

    def expand(self, frontier: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One level from ``frontier``: ``(new_nodes, parents)``, sorted by node.

        Runs the direction :meth:`choose` picks: a push gather whose claims on
        unvisited nodes go through :func:`claim_first`, or a
        :meth:`pull_expand` scan; both keep each new node's first claimant in
        the push scan order, so the result does not depend on the direction.
        The caller commits the claims to ``status`` and reports them through
        :meth:`on_covered`.
        """
        if self.choose(frontier) == "pull":
            new_nodes, parents = self.pull_expand(frontier)
            record_level_stats("pull", frontier.size, self.last_pull_arcs)
            return new_nodes, parents
        src, dst, _ = gather_neighbors(self.indptr, self.indices, frontier)
        record_level_stats("push", frontier.size, dst.size)
        unvisited = self.status[dst] == -1
        if not unvisited.any():
            return _EMPTY, _EMPTY
        return claim_first(dst[unvisited], src[unvisited], workspace=self.workspace)

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
        candidate_deg = candidate_deg[has_arcs]
        neighbors = self.indices[_arc_positions(self.indptr, candidates, candidate_deg)]
        segment_starts = np.concatenate(([0], np.cumsum(candidate_deg)))[:-1]
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
    degrees: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Level-synchronous multi-source BFS (direction-optimizing).

    Returns ``(distances, owners, num_levels)``: hop distances (``-1`` when
    unreached), the source whose tree claimed each node (``-1`` when
    unreached; ties within a level resolved by :func:`claim_first`), and the
    number of productive expansion rounds.  ``sources`` must be unique and in
    range (callers validate).

    Each level is one :meth:`DirectionOptimizer.expand`, the step the growth
    engine's unweighted clusters also take, so the per-level push/pull choice
    only affects speed.  Pass the graph's cached ``degrees`` to skip the
    per-call ``np.diff``.
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
    while frontier.size:
        new_nodes, parents = optimizer.expand(frontier)
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
                targets = indices[_arc_positions(indptr, frontier, degrees[frontier])]
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
# Shortest-path kernels and distance rows over pair ids
# --------------------------------------------------------------------------- #
def _pair_arcs(
    indptr: np.ndarray, indices: np.ndarray, degrees: np.ndarray, frontier: np.ndarray, rows: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arcs out of a non-empty ``frontier`` of pair ids ``j·n + v`` (``rows`` rows).

    Returns ``(positions, targets, frontier_degrees)``: the positions in
    ``indices`` of each pair's adjacency slice in frontier order, the target
    pair ids (arcs never cross rows), and the degree of each frontier pair.
    One row needs no ``% n`` or shift.
    """
    nodes = frontier % (indptr.size - 1) if rows > 1 else frontier
    deg = degrees[nodes]
    positions = _arc_positions(indptr, nodes, deg)
    targets = indices[positions]
    if rows > 1:
        targets = targets + np.repeat(frontier - nodes, deg)
    return positions, targets, deg


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


def msbfs_levels(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    *,
    degrees: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Hop distances from each of ``sources``, one row each.

    Returns an ``(len(sources), n)`` int64 matrix whose row ``j`` is
    bit-identical to ``frontier_expansion(indptr, indices, [sources[j]])[0]``
    (``-1`` when unreached; duplicates give equal rows).  The hop twin of
    :func:`delta_stepping_rows`: one level-synchronous BFS over flat pair ids
    ``j·n + v`` advances every row per level.  A level keeps one copy of each
    unvisited pair it reaches by scattering negative ranks into the distance
    matrix itself (the last write per pair survives), so the result is the
    only ``(len(sources), n)`` array.  Callers wanting bounded memory tile
    their sources by :func:`row_tile`.
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = indptr.size - 1
    dist = np.full((sources.size, n), -1, dtype=np.int64)
    if sources.size == 0 or n == 0:
        return dist
    if degrees is None:
        degrees = np.diff(indptr)
    flat = dist.reshape(-1)
    frontier = np.arange(sources.size, dtype=np.int64) * n + sources
    flat[frontier] = 0
    if _STATS is not None:
        _STATS.msbfs_sweeps += 1
    level = 0
    while frontier.size:
        _, dst, _ = _pair_arcs(indptr, indices, degrees, frontier, sources.size)
        if _STATS is not None:
            _STATS.msbfs_levels += 1
            _STATS.msbfs_edges_scanned += dst.size
        dst = dst[flat[dst] == -1]
        marks = -2 - np.arange(dst.size, dtype=np.int64)
        flat[dst] = marks
        frontier = dst[flat[dst] == marks]
        level += 1
        flat[frontier] = level
    return dist


def row_tile(num_arcs: int) -> int:
    """Sources per :func:`distance_rows` call: ``max(1, _TILE_ARCS // num_arcs)``,
    so small graphs share each round's overhead over many rows."""
    return max(1, _TILE_ARCS // max(1, int(num_arcs)))


def distance_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: Optional[np.ndarray],
    sources: np.ndarray,
    *,
    degrees: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Distances from each of ``sources`` as an ``(len(sources), n)`` float64 matrix.

    Weighted rows come from :func:`delta_stepping_rows`, hop rows from
    :func:`frontier_expansion` (one source) or :func:`msbfs_levels`; ``inf``
    marks unreached nodes.  Row ``j`` depends only on ``sources[j]``.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if weights is not None:
        return delta_stepping_rows(indptr, indices, weights, sources)
    if sources.size == 1:
        hops = frontier_expansion(indptr, indices, sources, degrees=degrees)[0][None, :]
    else:
        hops = msbfs_levels(indptr, indices, sources, degrees=degrees)
    rows = hops.astype(np.float64)
    rows[hops < 0] = np.inf
    return rows


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
    rows = size // n
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
            pos, dst, deg = _pair_arcs(indptr, indices, degrees, frontier, rows)
            if pos.size == 0:
                break
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
