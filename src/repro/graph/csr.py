"""Compressed-sparse-row graph representation — the single array-backed core.

The whole library operates on undirected graphs stored in CSR
(adjacency-array) form, which is both the natural in-memory layout for
vectorized NumPy frontier expansion and the closest analogue to the
edge-partitioned representation a MapReduce/Spark implementation would use.

:class:`CSRGraph` is the one graph type: ``indptr``/``indices`` plus an
*optional* aligned ``weights`` array, whose presence alone selects the metric
(hops or summed edge weights) for every algorithm in the library.
Construction and validation (including the per-node sorted-``indices``
invariant that the binary-search lookups rely on, with weights permuted
alongside) live here; :meth:`CSRGraph.from_edges` folds an edge list with
:func:`~repro.graph.kernels.min_per_key`, the fold behind every CSR build.

Nodes are integers ``0 .. n-1``.  Edges are stored twice (once per endpoint),
self-loops and parallel edges are removed at construction time.

The substrate is storage-agnostic: the arrays may live in RAM or be read-only
``np.memmap`` views over an on-disk snapshot (written and opened by
:func:`~repro.graph.snapshot.save_snapshot` /
:func:`~repro.graph.snapshot.load_snapshot`), distinguished by the
:attr:`CSRGraph.mode` surface (``"in_memory"`` / ``"mmap"``).  Every kernel
and consumer treats the arrays as read-only, so mmap-backed graphs flow
through decomposition, the MR plane, and the oracle builder unchanged;
anything that needs a private mutable copy must take one explicitly
(copy-on-write stays the caller's choice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.graph import kernels
from repro.utils.validation import check_node_batch, check_node_index

__all__ = ["CSRGraph"]


#: Node ids must fit the packed ``u << 32 | v`` int64 edge key.
_MAX_NODE_ID = (1 << 31) - 1


def _edge_keys(edges, weights) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """Validate an edge list and pack each edge that is no self-loop into one key.

    Returns ``(keys, weights, max_id)``: ``lo << 32 | hi`` per kept edge
    (``lo < hi`` its endpoints, so ``keys`` order the edges as ``(lo, hi)``
    pairs), the kept weights, and the largest endpoint (-1 without edges).
    :meth:`CSRGraph.from_edges` and streamed ingestion
    (:mod:`repro.graph.ingest`) both read their edges through it.
    """
    edge_array = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if edge_array.size == 0:
        edge_array = edge_array.reshape(0, 2)
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {edge_array.shape}")
    edge_array = edge_array.astype(np.int64, copy=False)
    if weights is not None:
        weights = np.asarray(
            weights if isinstance(weights, np.ndarray) else list(weights), dtype=np.float64
        ).reshape(-1)
        if weights.shape[0] != edge_array.shape[0]:
            raise ValueError("edges and weights must have the same length")
        if weights.size and not (weights.min() > 0 and weights.max() < np.inf):
            raise ValueError("edge weights must be finite and strictly positive")
    lo = np.minimum(edge_array[:, 0], edge_array[:, 1])
    hi = np.maximum(edge_array[:, 0], edge_array[:, 1])
    if lo.size and lo.min() < 0:
        raise ValueError("edge endpoints must be non-negative")
    max_id = int(hi.max()) if hi.size else -1
    if max_id > _MAX_NODE_ID:
        raise ValueError(f"node id {max_id} exceeds the 2^31 - 1 limit of the packed edge key")
    keep = lo != hi
    keys = (lo[keep] << np.int64(32)) | hi[keep]
    return keys, None if weights is None else weights[keep], max_id


def _node_count(num_nodes: Optional[int], max_id: int) -> int:
    """``num_nodes``, or ``max_id + 1`` by default; it must cover ``max_id``."""
    n = max_id + 1 if num_nodes is None else int(num_nodes)
    if n <= max_id:
        raise ValueError(f"num_nodes={n} is smaller than the largest endpoint + 1 ({max_id + 1})")
    return n


@dataclass(frozen=True)
class CSRGraph:
    """An immutable undirected graph in CSR form (optionally edge-weighted).

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; the neighbours of node
        ``v`` are ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int64`` array of length ``2 * num_edges`` holding neighbour ids,
        sorted within each node's slice.  Raw-constructor inputs violating the
        per-node sort order are sorted at construction time (weights are
        permuted alongside), so the invariant relied upon by ``has_edge``'s
        binary search always holds.
    weights:
        Optional ``float64`` array aligned with ``indices``: ``weights[p]`` is
        the strictly positive weight of the arc stored at position ``p`` (both
        copies of an undirected edge carry the same weight).  ``None`` marks a
        purely unweighted graph.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(np.asarray(self.indptr, dtype=np.int64))
        indices = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional arrays")
        if indptr.size == 0:
            raise ValueError("indptr must have length num_nodes + 1 >= 1")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("indices contain node ids outside [0, num_nodes)")
        weights = self.weights
        if weights is not None:
            weights = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
            if weights.shape != indices.shape:
                raise ValueError("weights must be aligned with indices")
            if weights.size and not (weights.min() > 0 and weights.max() < np.inf):
                raise ValueError("edge weights must be finite and strictly positive")
        # Enforce the documented invariant that every node's neighbour slice is
        # sorted (``has_edge`` / ``edge_weight`` binary-search it): inputs built
        # via the raw constructor with unsorted rows are sorted here, once,
        # with any weights permuted alongside.  A descent that is no row start
        # (looked up in the sorted indptr) lies inside an unsorted row.
        if indices.size > 1:
            descending = np.flatnonzero(indices[1:] < indices[:-1]) + 1
            if descending.size and (indptr[np.searchsorted(indptr, descending)] != descending).any():
                rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
                order = np.lexsort((indices, rows))
                indices = indices[order]
                if weights is not None:
                    weights = weights[order]
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_edges(
        cls,
        edges: "np.ndarray | Sequence[Tuple[int, int]]",
        num_nodes: Optional[int] = None,
        *,
        weights: "np.ndarray | Sequence[float] | None" = None,
    ) -> "CSRGraph":
        """Build a graph from an ``(m, 2)`` edge array (or list of pairs).

        The input is treated as undirected: each edge is inserted in both
        directions; self-loops are dropped.  Without ``weights`` duplicate
        edges are removed; with ``weights`` (a length-``m`` array of strictly
        positive values) duplicates keep the minimum weight.  Streamed
        ingestion packs and folds its chunks the same way, so the two builds
        agree bit for bit.

        Parameters
        ----------
        edges:
            Array-like of shape ``(m, 2)`` with integer endpoints in
            ``[0, 2^31)``.
        num_nodes:
            Number of nodes.  Defaults to ``max endpoint + 1`` (0 for an empty
            edge list), and may be larger to include isolated nodes.
        weights:
            Optional per-edge weights aligned with ``edges``.
        """
        keys, weight_array, max_id = _edge_keys(edges, weights)
        n = _node_count(num_nodes, max_id)
        keys, folded = kernels.min_per_key(keys, weight_array)
        indptr, indices, folded = kernels.pairs_to_csr(keys >> np.int64(32), keys & np.int64(0xFFFFFFFF), folded, n)
        return cls(indptr=indptr, indices=indices, weights=folded)

    @classmethod
    def empty(cls, num_nodes: int = 0) -> "CSRGraph":
        """Graph with ``num_nodes`` isolated nodes and no edges."""
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        return cls(indptr=np.zeros(num_nodes + 1, dtype=np.int64), indices=np.zeros(0, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # Storage
    # ------------------------------------------------------------------ #
    @property
    def mode(self) -> str:
        """``"mmap"`` when any CSR array is a view over an ``np.memmap``."""
        for array in (self.indptr, self.indices, self.weights):
            candidate = array
            while candidate is not None:
                if isinstance(candidate, np.memmap):
                    return "mmap"
                candidate = getattr(candidate, "base", None)
        return "in_memory"

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (each counted once)."""
        return int(self.indices.size // 2)

    @property
    def num_directed_edges(self) -> int:
        """Number of stored arcs (``2m``)."""
        return int(self.indices.size)

    @property
    def is_weighted(self) -> bool:
        """True when the graph carries an edge-weight array."""
        return self.weights is not None

    @property
    def degrees(self) -> np.ndarray:
        """Read-only per-node degree array (``np.diff(indptr)``), cached.

        Computed lazily on first access and reused by every frontier kernel
        caller — the per-level direction heuristics read it constantly.  The
        cache lives on the instance (the frozen dataclass still has a
        ``__dict__``), so mmap-backed and in-memory graphs both pay the
        ``np.diff`` exactly once; derived graphs (``unweighted()``,
        ``subgraph()``) are new instances with fresh caches.
        """
        cached = self.__dict__.get("_degrees")
        if cached is None:
            cached = np.diff(self.indptr)
            cached.flags.writeable = False
            object.__setattr__(self, "_degrees", cached)
        return cached

    def degree(self, node: Optional[int] = None) -> "np.ndarray | int":
        """Degree of ``node``, or the full degree array if ``node`` is None."""
        if node is None:
            return self.degrees
        idx = check_node_index(node, self.num_nodes)
        return int(self.indptr[idx + 1] - self.indptr[idx])

    def neighbors(self, node: int) -> np.ndarray:
        """Read-only view of the neighbour ids of ``node``."""
        idx = check_node_index(node, self.num_nodes)
        view = self.indices[self.indptr[idx] : self.indptr[idx + 1]]
        view.flags.writeable = False
        return view

    def has_edge(self, u: int, v: int) -> bool:
        """True if the undirected edge ``{u, v}`` is present."""
        ui = check_node_index(u, self.num_nodes, "u")
        vi = check_node_index(v, self.num_nodes, "v")
        row = self.indices[self.indptr[ui] : self.indptr[ui + 1]]
        pos = np.searchsorted(row, vi)
        return bool(pos < row.size and row[pos] == vi)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of the undirected edge ``{u, v}`` (1.0 on an unweighted graph).

        Raises ``IndexError`` naming an out-of-range id and ``KeyError`` when
        the edge is absent.
        """
        ui = check_node_index(u, self.num_nodes, "u")
        vi = check_node_index(v, self.num_nodes, "v")
        row = self.indices[self.indptr[ui] : self.indptr[ui + 1]]
        pos = int(np.searchsorted(row, vi))
        if pos >= row.size or row[pos] != vi:
            raise KeyError(f"no edge between {u} and {v}")
        return 1.0 if self.weights is None else float(self.weights[self.indptr[ui] + pos])

    def edge_list(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(edges, weights_or_None)`` with each undirected edge once (``u < v``).

        The single place where per-arc storage is folded back to one row per
        undirected edge with the weight column aligned: IO and the composition
        builders delegate here so the edge/weight alignment cannot drift
        between them.
        """
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        mask = src < self.indices
        edges = np.stack([src[mask], self.indices[mask]], axis=1)
        weights = None if self.weights is None else self.weights[mask]
        return edges, weights

    def edges(self) -> np.ndarray:
        """Return an ``(m, 2)`` array of undirected edges with ``u < v``."""
        return self.edge_list()[0]

    def neighbor_blocks(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized neighbour gather for a batch of ``nodes``.

        Returns ``(sources, targets)`` where ``targets`` is the concatenation
        of the adjacency lists of ``nodes`` and ``sources[i]`` is the node
        whose adjacency list produced ``targets[i]``.  This is the
        :func:`repro.graph.kernels.gather_neighbors` primitive behind every
        frontier-expansion step in the library.
        """
        nodes = check_node_batch(nodes, self.num_nodes)
        sources, targets, _ = kernels.gather_neighbors(self.indptr, self.indices, nodes)
        return sources, targets

    def unweighted(self) -> "CSRGraph":
        """The hop-metric skeleton of the graph (weights dropped, CSR arrays shared)."""
        return CSRGraph(indptr=self.indptr, indices=self.indices)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes: Sequence[int]) -> Tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``nodes`` (weights carried over when present).

        Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original
        id of new node ``i``.  The kept rows are copied in node order without
        their arcs to dropped nodes; relabelling preserves order, so every
        row stays sorted and nothing is re-sorted.
        """
        keep = np.unique(check_node_batch(nodes, self.num_nodes))
        new_id = np.full(self.num_nodes, -1, dtype=np.int64)
        new_id[keep] = np.arange(keep.size, dtype=np.int64)
        degrees = self.degrees[keep]
        # _arc_positions needs a non-empty batch; an empty ``keep`` has no arcs.
        positions = kernels._arc_positions(self.indptr, keep, degrees) if keep.size else keep
        targets = new_id[self.indices[positions]]
        inside = targets >= 0
        # The new indptr counts the kept arcs before each row end.
        kept = np.zeros(positions.size + 1, dtype=np.int64)
        np.cumsum(inside, out=kept[1:])
        indptr = kept[np.concatenate(([0], np.cumsum(degrees)))]
        weights = None if self.weights is None else self.weights[positions[inside]]
        return CSRGraph(indptr=indptr, indices=targets[inside], weights=weights), keep

    # ------------------------------------------------------------------ #
    # Dunder helpers
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def __len__(self) -> int:
        return self.num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if (self.weights is None) != (other.weights is None):
            return False
        return bool(
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and (self.weights is None or np.array_equal(self.weights, other.weights))
        )

    def __hash__(self) -> int:  # frozen dataclass with arrays: hash on shape summary
        return hash((self.num_nodes, self.num_directed_edges))

    def __repr__(self) -> str:
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
