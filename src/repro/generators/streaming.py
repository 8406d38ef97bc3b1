"""Streaming generator emitters: synthesize graphs straight to snapshots.

:func:`repro.generators.rmat.rmat_graph` samples every directed edge in one
chunk — ``2**scale * edge_factor`` int64 pairs plus temporaries — which
caps generation at RAM.  The streaming emitters here draw the same
R-MAT model in bounded edge chunks and feed them to the out-of-core builder
(:func:`repro.graph.ingest.from_edge_chunks`), so a ~10⁸-edge graph is
synthesized with peak memory proportional to one chunk while the CSR arrays
scatter directly into an on-disk snapshot.

Determinism: a ``(seed, chunk_edges)`` pair fully determines the output —
each chunk draws its randomness sequentially from one generator, so the
chunk size is part of the sampling contract (the same seed with a different
``chunk_edges`` is a different — equally valid — R-MAT sample).  The built
*graph* is chunk-size-invariant given the sampled edges; what changes is the
sample itself, exactly like re-seeding.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.ingest import (
    DEFAULT_CHUNK_EDGES,
    EdgeChunk,
    from_edge_chunks,
    largest_component_snapshot,
)
from repro.utils.rng import SeedLike, as_rng

PathLike = Union[str, os.PathLike]

__all__ = ["rmat_edge_chunks", "rmat_to_snapshot"]


def _validate_rmat(scale: int, edge_factor: int, a: float, b: float, c: float) -> float:
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if edge_factor < 1:
        raise ValueError("edge_factor must be >= 1")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("quadrant probabilities must be non-negative and sum to <= 1")
    return d


def rmat_edge_chunks(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: SeedLike = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> Iterator[EdgeChunk]:
    """Yield the directed R-MAT sample in edge chunks (the one R-MAT sampler).

    Draws ``chunk_edges`` samples at a time: each chunk runs the level-major
    bit descent over its own slice, so memory is bounded by the chunk.
    :func:`~repro.generators.rmat.rmat_graph` draws its whole sample as one
    chunk.  Chunks are ``(edges, None)`` pairs ready for
    :func:`~repro.graph.ingest.from_edge_chunks` (whose undirected fold makes
    explicit symmetrization unnecessary).
    """
    d = _validate_rmat(scale, edge_factor, a, b, c)
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    rng = as_rng(seed)
    num_samples = (1 << scale) * edge_factor
    emitted = 0
    while emitted < num_samples:
        count = min(chunk_edges, num_samples - emitted)
        src = np.zeros(count, dtype=np.int64)
        dst = np.zeros(count, dtype=np.int64)
        for level in range(scale):
            r = rng.random(count)
            right = (r >= a + c).astype(np.int64)
            bottom_prob = np.where(right == 1, d / max(b + d, 1e-12), c / max(a + c, 1e-12))
            bottom = (rng.random(count) < bottom_prob).astype(np.int64)
            bit = np.int64(1) << np.int64(scale - 1 - level)
            src += bottom * bit
            dst += right * bit
        yield np.stack([src, dst], axis=1), None
        emitted += count


def rmat_to_snapshot(
    path: PathLike,
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: SeedLike = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    connected_only: bool = False,
    mmap: bool = True,
    tmp_dir: Optional[PathLike] = None,
) -> Tuple[CSRGraph, Path]:
    """Synthesize an R-MAT graph directly into an on-disk snapshot.

    The streaming counterpart of ``rmat_graph(...)`` + ``save_snapshot(graph, path)``
    for unweighted graphs: edges are drawn in chunks
    (:func:`rmat_edge_chunks`) and scattered straight into the snapshot file,
    so peak memory is a few chunk-sized temporaries plus the O(n) degree
    array — never the edge list.  With ``connected_only=True`` the full
    sample is staged to a sibling temp snapshot and its largest component is
    streamed into ``path`` (the registry's standard preprocessing).

    Returns ``(graph, path)`` with the graph opened from the final snapshot
    in the requested ``mmap`` mode.
    """
    path = Path(path)

    def chunks() -> Iterator[EdgeChunk]:
        return rmat_edge_chunks(
            scale,
            edge_factor,
            a=a,
            b=b,
            c=c,
            seed=seed,
            chunk_edges=chunk_edges,
        )

    num_nodes = 1 << scale
    if not connected_only:
        graph = from_edge_chunks(
            chunks, num_nodes=num_nodes, snapshot_path=path, mmap=mmap, tmp_dir=tmp_dir
        )
        return graph, path
    stage = path.with_name(path.name + ".full")
    full = from_edge_chunks(
        chunks, num_nodes=num_nodes, snapshot_path=stage, mmap=True, tmp_dir=tmp_dir
    )
    try:
        graph, _ = largest_component_snapshot(full, path, mmap=mmap)
    finally:
        del full
        stage.unlink(missing_ok=True)
    return graph, path
