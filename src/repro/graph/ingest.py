"""Streaming graph ingestion: build CSR graphs without holding the edge list.

:meth:`~repro.graph.csr.CSRGraph.from_edges` materializes the whole edge
array plus several same-sized temporaries, which caps construction at what
fits in RAM.  This module builds the *identical* graph from a stream of edge
chunks in bounded memory:

1. **Chunked external sort** — every incoming chunk goes through the edge
   validation and packing of ``from_edges`` (self-loops dropped, one
   ``lo << 32 | hi`` ``int64`` key per undirected edge), is folded by
   :func:`~repro.graph.kernels.min_per_key` (sorted, deduplicated, minimum
   weight wins — the fold of ``from_edges``), and written to a sorted *run*
   file on disk.  Peak memory is a few chunk-sized temporaries.
2. **K-way merge** — the runs are merged block-wise into one globally sorted,
   globally deduplicated stream, each block by the same fold.  Runs are
   strictly increasing, so a cutoff chosen as the minimum next-block
   boundary guarantees every duplicate of an emitted key is folded in the
   same round.  The merge is re-runnable, which is what makes the counting
   build two-pass.
3. **Two-pass counting build** — pass 1 accumulates per-node degrees from the
   merged stream (one ``int64`` array of length ``n``); pass 2 replays the
   merge and scatters both arc directions into a preallocated ``indices``
   array through per-node write cursors.  Because the stream is sorted by
   ``(u, v)``, the scatter emits every adjacency row already sorted — the
   exact layout ``from_edges`` produces, bit for bit.

The preallocated output can live in RAM or directly inside an on-disk
snapshot (:class:`~repro.graph.snapshot.SnapshotWriter`), in which case the
build never allocates an edge-sized array in memory at all and the result
comes back as an mmap-backed graph.  :func:`largest_component_snapshot`
applies the same streaming discipline to the registry's standard
largest-component preprocessing.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.graph import kernels
from repro.graph.csr import CSRGraph, _edge_keys, _node_count
from repro.graph.snapshot import SnapshotWriter, load_snapshot, save_snapshot

PathLike = Union[str, os.PathLike]

#: Edges per processing chunk.  Part of the determinism contract of the
#: streaming *generators* (chunk boundaries shape their RNG draws), though the
#: built graph itself is chunk-size-invariant.
DEFAULT_CHUNK_EDGES = 1 << 20

#: Entries per merge block read from each sorted run.  With the scatter
#: slice below it bounds the temporaries: bench_outofcore's scale-19 build
#: peaked at 230 MB with both at 2^16, 353 MB at 2^19, in about equal time.
_MERGE_BLOCK = 1 << 16

#: Edges per counting/scatter slice: caps the size of the ~10 edge-length
#: temporaries of :func:`_scatter_chunk` independently of merge chunk sizes.
_SCATTER_BLOCK = 1 << 16

#: An edge chunk: an ``(m, 2)`` int64 array plus optional aligned weights.
EdgeChunk = Tuple[np.ndarray, Optional[np.ndarray]]

__all__ = [
    "DEFAULT_CHUNK_EDGES",
    "from_edge_chunks",
    "ingest_edge_list",
    "largest_component_snapshot",
]


def _advise_dontneed(array) -> None:
    """Drop the resident pages of a memmap-backed array (best effort).

    File-backed pages stay mapped in the address space until evicted;
    releasing them after a streaming pass keeps the builder's peak RSS
    bounded by the chunk temporaries instead of the full output file.
    Dirty pages remain in the page cache, so nothing is lost.
    """
    candidate = array
    while candidate is not None:
        mm = getattr(candidate, "_mmap", None)
        if mm is not None:
            try:
                import mmap as _mmap_module

                mm.madvise(_mmap_module.MADV_DONTNEED)
            except (AttributeError, ValueError, OSError):  # pragma: no cover
                pass
            return
        candidate = getattr(candidate, "base", None)


def _write_runs(
    chunks: Iterable[EdgeChunk], run_dir: Path
) -> Tuple[List[Path], List[Optional[Path]], int, bool]:
    """Externally sort the chunk stream into per-chunk run files.

    Returns ``(key_runs, weight_runs, max_node_id, weighted)``.  Every chunk
    must agree on weightedness (mirroring ``from_edges``, where weights cover
    either every edge or none).
    """
    key_runs: List[Path] = []
    weight_runs: List[Optional[Path]] = []
    max_id = -1
    weighted: Optional[bool] = None
    for index, chunk in enumerate(chunks):
        edges, weights = chunk if isinstance(chunk, tuple) else (chunk, None)
        has_weights = weights is not None
        if weighted is None:
            weighted = has_weights
        elif weighted != has_weights:
            raise ValueError("edge chunks must be uniformly weighted or unweighted")
        keys, weights, chunk_max = _edge_keys(edges, weights)
        keys, folded = kernels.min_per_key(keys, weights)
        max_id = max(max_id, chunk_max)
        if keys.size == 0:
            continue
        key_path = run_dir / f"run_{index}.keys.npy"
        np.save(key_path, keys)
        key_runs.append(key_path)
        if folded is not None:
            weight_path = run_dir / f"run_{index}.weights.npy"
            np.save(weight_path, folded)
            weight_runs.append(weight_path)
        else:
            weight_runs.append(None)
    return key_runs, weight_runs, max_id, bool(weighted)


def _merge_runs(
    key_runs: List[Path], weight_runs: List[Optional[Path]], *, block: int = _MERGE_BLOCK
) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Block-wise k-way merge of sorted runs with global min-weight dedup.

    Yields globally sorted chunks of strictly increasing keys; duplicates of
    any yielded key never straddle a chunk boundary (see the cutoff argument
    in the module docstring), so folding is exact.
    """
    if not key_runs:
        return
    keys = [np.load(path, mmap_mode="r") for path in key_runs]
    weights = [
        np.load(path, mmap_mode="r") if path is not None else None for path in weight_runs
    ]
    weighted = weights[0] is not None
    positions = [0] * len(keys)
    while True:
        live = [i for i in range(len(keys)) if positions[i] < keys[i].size]
        if not live:
            break
        # Cutoff = the minimum over live runs of the last key of each run's
        # next block (or of its remainder, when shorter).  Consuming every
        # key <= cutoff from every run keeps duplicate folding exact — all
        # copies of an emitted key leave their runs in the same round — while
        # bounding the round to ~block entries per run even in the drain
        # phase, which in turn bounds the downstream sort/scatter temporaries.
        cutoff = min(
            keys[i][min(positions[i] + block, keys[i].size) - 1] for i in live
        )
        key_parts: List[np.ndarray] = []
        weight_parts: List[np.ndarray] = []
        for i in live:
            start = positions[i]
            end = start + int(np.searchsorted(keys[i][start:], cutoff, side="right"))
            if end == start:
                continue
            key_parts.append(np.asarray(keys[i][start:end]))
            if weighted:
                weight_parts.append(np.asarray(weights[i][start:end]))
            positions[i] = end
        if not key_parts:  # pragma: no cover - cutoff always consumes one block
            raise RuntimeError("merge made no progress")
        yield kernels.min_per_key(
            np.concatenate(key_parts), np.concatenate(weight_parts) if weighted else None
        )
        # The consumed blocks are never read again in this pass.
        for array in keys + weights:
            _advise_dontneed(array)


def _scatter_chunk(
    keys: np.ndarray,
    folded: Optional[np.ndarray],
    cursor: np.ndarray,
    indices_out,
    weights_out,
    num_nodes: int,
) -> None:
    """Scatter one sorted, deduplicated merge chunk into the CSR arrays.

    Both arc directions of every edge are written at the edge's stream
    position; because the stream is sorted by ``(u, v)``, each adjacency row
    receives its entries in ascending order (all smaller neighbours from the
    earlier ``(x, w)`` edges, then the larger ones from ``(w, y)``), so no
    post-sort is needed and the layout matches ``from_edges`` bit for bit.
    """
    u = keys >> np.int64(32)
    v = keys & np.int64(0xFFFFFFFF)
    k = keys.size
    rows = np.empty(2 * k, dtype=np.int64)
    vals = np.empty(2 * k, dtype=np.int64)
    rows[0::2] = u
    rows[1::2] = v
    vals[0::2] = v
    vals[1::2] = u
    # Per-row occurrence ranks within this chunk (stable grouping by row).
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    first = np.ones(2 * k, dtype=bool)
    first[1:] = sorted_rows[1:] != sorted_rows[:-1]
    group = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    ranks = np.arange(2 * k, dtype=np.int64) - starts[group]
    occurrence = np.empty(2 * k, dtype=np.int64)
    occurrence[order] = ranks
    targets = cursor[rows] + occurrence
    indices_out[targets] = vals
    if weights_out is not None:
        pair_weights = np.empty(2 * k, dtype=np.float64)
        pair_weights[0::2] = folded
        pair_weights[1::2] = folded
        weights_out[targets] = pair_weights
    cursor += np.bincount(rows, minlength=num_nodes)


def from_edge_chunks(
    chunks: Callable[[], Iterable[EdgeChunk]],
    *,
    num_nodes: Optional[int] = None,
    snapshot_path: Optional[PathLike] = None,
    mmap: bool = True,
    tmp_dir: Optional[PathLike] = None,
) -> CSRGraph:
    """Build a graph from a re-iterable stream of edge chunks in bounded memory.

    Parameters
    ----------
    chunks:
        Zero-argument callable returning a fresh iterable of edge chunks —
        each an ``(m, 2)`` integer array or an ``(edges, weights)`` tuple.
        It is invoked once (the external sort consumes the stream a single
        time; the two counting passes replay the on-disk runs).
    num_nodes:
        Optional explicit node count (must cover the largest endpoint).
        Defaults to ``max endpoint + 1``.
    snapshot_path:
        When given, the CSR arrays are scattered directly into an on-disk
        snapshot at this path (written atomically) and the returned graph is
        loaded from it with the requested ``mmap`` mode.  Without it the
        arrays are built in memory.
    mmap:
        How to open the resulting snapshot (ignored without
        ``snapshot_path``).

    The result is bit-identical to
    ``CSRGraph.from_edges(concatenated_chunks, num_nodes=...)`` — same
    self-loop/duplicate folding (minimum weight wins), same sorted row
    layout — without ever materializing the concatenated edge list.
    """
    own_tmp = tmp_dir is None
    run_dir = Path(tempfile.mkdtemp(prefix="repro-ingest-")) if own_tmp else Path(tmp_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    writer: Optional[SnapshotWriter] = None
    try:
        key_runs, weight_runs, max_id, weighted = _write_runs(chunks(), run_dir)
        n = _node_count(num_nodes, max_id)

        # Pass 1: count degrees over the merged, deduplicated stream.
        degrees = np.zeros(n, dtype=np.int64)
        total_edges = 0
        for keys, _ in _merge_runs(key_runs, weight_runs):
            total_edges += keys.size
            for lo in range(0, keys.size, _SCATTER_BLOCK):
                part = keys[lo : lo + _SCATTER_BLOCK]
                endpoints = np.empty(2 * part.size, dtype=np.int64)
                endpoints[0::2] = part >> np.int64(32)
                endpoints[1::2] = part & np.int64(0xFFFFFFFF)
                degrees += np.bincount(endpoints, minlength=n)

        num_arcs = 2 * total_edges
        if snapshot_path is not None:
            writer = SnapshotWriter(snapshot_path, n, num_arcs, weighted=weighted)
            indptr_out = writer.indptr
            indices_out = writer.indices
            weights_out = writer.weights
        else:
            indptr_out = np.zeros(n + 1, dtype=np.int64)
            indices_out = np.empty(num_arcs, dtype=np.int64)
            weights_out = np.empty(num_arcs, dtype=np.float64) if weighted else None
        indptr_out[0] = 0
        np.cumsum(degrees, out=indptr_out[1:])

        # Pass 2: replay the merge and scatter through per-node cursors.
        # Slicing a merged chunk is safe — duplicates are already folded and
        # the cursors carry row state across slices — and caps the scatter
        # temporaries at ``_SCATTER_BLOCK`` edges regardless of chunk size.
        cursor = np.cumsum(degrees) - degrees
        for keys, folded in _merge_runs(key_runs, weight_runs):
            for lo in range(0, keys.size, _SCATTER_BLOCK):
                _scatter_chunk(
                    keys[lo : lo + _SCATTER_BLOCK],
                    None if folded is None else folded[lo : lo + _SCATTER_BLOCK],
                    cursor,
                    indices_out,
                    weights_out,
                    n,
                )
        if writer is not None:
            _advise_dontneed(indices_out)
            path = writer.finalize()
            writer = None
            return load_snapshot(path, mmap=mmap)
        return CSRGraph(indptr=indptr_out, indices=indices_out, weights=weights_out)
    finally:
        if writer is not None:
            writer.abort()
        if own_tmp:
            shutil.rmtree(run_dir, ignore_errors=True)


def ingest_edge_list(
    path: PathLike,
    *,
    num_nodes: Optional[int] = None,
    weighted: bool = False,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    snapshot_path: Optional[PathLike] = None,
    mmap: bool = True,
    tmp_dir: Optional[PathLike] = None,
) -> CSRGraph:
    """Stream a whitespace edge-list file into a CSR graph / snapshot.

    The out-of-core counterpart of :func:`repro.graph.io.load_edge_list`:
    the file is read in line chunks (never as one string), so arbitrarily
    large SNAP-style inputs ingest in bounded memory.  Node ids are used
    as-is (no relabeling — ids must be dense enough to serve as array
    indices); the undirected fold matches ``from_edges``.
    """
    from repro.graph.io import iter_edge_list_chunks

    def chunk_source() -> Iterator[EdgeChunk]:
        return iter_edge_list_chunks(path, chunk_edges=chunk_edges, with_weights=weighted)

    return from_edge_chunks(
        chunk_source,
        num_nodes=num_nodes,
        snapshot_path=snapshot_path,
        mmap=mmap,
        tmp_dir=tmp_dir,
    )


def largest_component_snapshot(
    graph: CSRGraph,
    path: PathLike,
    *,
    mmap: bool = True,
    chunk_arcs: int = 1 << 22,
) -> Tuple[CSRGraph, np.ndarray]:
    """Stream the largest connected component of ``graph`` into a snapshot.

    The out-of-core counterpart of
    :func:`repro.graph.components.largest_component`: component labels are
    computed with the shared frontier kernel (O(n) resident memory), then the
    kept adjacency rows are copied block-wise into a new snapshot without
    materializing an edge list.  Relabeling preserves node order, so every
    row stays sorted.  Returns ``(component_graph, original_ids)`` exactly
    like the in-memory helper, with the graph opened from ``path`` in the
    requested ``mmap`` mode.
    """
    labels = kernels.component_labels(graph.indptr, graph.indices)
    if labels.size == 0:
        save_snapshot(graph, path)  # the empty graph, weighted or not
        return load_snapshot(path, mmap=mmap), np.zeros(0, dtype=np.int64)
    sizes = np.bincount(labels)
    keep = labels == int(np.argmax(sizes))
    kept_nodes = np.flatnonzero(keep)
    new_id = np.cumsum(keep, dtype=np.int64) - 1
    degrees = np.diff(graph.indptr)[kept_nodes]
    num_arcs = int(degrees.sum())
    weighted = graph.weights is not None
    writer = SnapshotWriter(path, kept_nodes.size, num_arcs, weighted=weighted)
    try:
        writer.indptr[0] = 0
        np.cumsum(degrees, out=writer.indptr[1:])
        # Split the kept nodes into blocks of at most ``chunk_arcs`` arcs.
        bounds = np.cumsum(degrees)
        offset = 0
        start = 0
        while start < kept_nodes.size:
            stop = int(np.searchsorted(bounds, bounds[start] - degrees[start] + chunk_arcs, side="right"))
            stop = max(stop, start + 1)
            positions = kernels._arc_positions(graph.indptr, kept_nodes[start:stop], degrees[start:stop])
            writer.indices[offset : offset + positions.size] = new_id[graph.indices[positions]]
            if weighted:
                writer.weights[offset : offset + positions.size] = graph.weights[positions]
            offset += positions.size
            start = stop
        assert offset == num_arcs
        _advise_dontneed(writer.indices)
        final = writer.finalize()
    except BaseException:
        writer.abort()
        raise
    return load_snapshot(final, mmap=mmap), kept_nodes
