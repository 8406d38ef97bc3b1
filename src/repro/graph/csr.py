"""Compressed-sparse-row graph representation — the single array-backed core.

The whole library operates on undirected graphs stored in CSR
(adjacency-array) form, which is both the natural in-memory layout for
vectorized NumPy frontier expansion and the closest analogue to the
edge-partitioned representation a MapReduce/Spark implementation would use.

:class:`CSRGraph` is the one graph type: ``indptr``/``indices`` plus an
*optional* aligned ``weights`` array, whose presence alone selects the metric
(hops or summed edge weights) for every algorithm in the library.
Construction, validation (including the per-node sorted-``indices`` invariant
that the binary-search lookups rely on, with weights permuted alongside),
self-loop removal, and duplicate folding (min weight wins) live here.

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


def _fold_undirected_edges(
    edge_array: np.ndarray,
    weight_array: Optional[np.ndarray],
    num_nodes: int,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Shared edge-list folding: drop self-loops, symmetrize, deduplicate.

    Returns ``(indptr, indices, weights)``.  Duplicate undirected edges keep
    the *minimum* weight (the only sensible choice for shortest-path
    purposes); without weights the duplicates are simply dropped.
    """
    n = num_nodes
    mask = edge_array[:, 0] != edge_array[:, 1]
    edge_array = edge_array[mask]
    if weight_array is not None:
        weight_array = weight_array[mask]
    if edge_array.size == 0:
        return (
            np.zeros(n + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            None if weight_array is None else np.zeros(0, dtype=np.float64),
        )
    # Canonicalize to (min, max), fold duplicates, then mirror both ways.
    canonical = np.sort(edge_array, axis=1)
    keys = canonical[:, 0] * np.int64(n) + canonical[:, 1]
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    unique_edges = np.stack([unique_keys // n, unique_keys % n], axis=1)
    both = np.concatenate([unique_edges, unique_edges[:, ::-1]], axis=0)
    both_weights = None
    if weight_array is not None:
        folded = np.full(unique_keys.size, np.inf)
        np.minimum.at(folded, inverse, weight_array)
        both_weights = np.concatenate([folded, folded])
    order = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order]
    counts = np.bincount(both[:, 0], minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    weights = None if both_weights is None else both_weights[order].copy()
    return indptr, both[:, 1].copy(), weights


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
        positive values) duplicates keep the minimum weight.

        Parameters
        ----------
        edges:
            Array-like of shape ``(m, 2)`` with integer endpoints.
        num_nodes:
            Number of nodes.  Defaults to ``max endpoint + 1`` (0 for an empty
            edge list), and may be larger to include isolated nodes.
        weights:
            Optional per-edge weights aligned with ``edges``.
        """
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edge_array.shape}")
        edge_array = edge_array.astype(np.int64, copy=False)
        weight_array: Optional[np.ndarray] = None
        if weights is not None:
            weight_array = np.asarray(
                list(weights) if not isinstance(weights, np.ndarray) else weights,
                dtype=np.float64,
            ).reshape(-1)
            if edge_array.shape[0] != weight_array.shape[0]:
                raise ValueError("edges and weights must have the same length")
            if weight_array.size and not (weight_array.min() > 0 and weight_array.max() < np.inf):
                raise ValueError("edge weights must be finite and strictly positive")
        if edge_array.size and edge_array.min() < 0:
            raise ValueError("edge endpoints must be non-negative")
        inferred = int(edge_array.max()) + 1 if edge_array.size else 0
        n = inferred if num_nodes is None else int(num_nodes)
        if n < inferred:
            raise ValueError(
                f"num_nodes={n} is smaller than the largest endpoint + 1 ({inferred})"
            )
        indptr, indices, folded = _fold_undirected_edges(edge_array, weight_array, n)
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
