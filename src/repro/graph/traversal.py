"""Graph traversals: breadth-first search and Dijkstra.

Every traversal in the library is vectorized over whole frontiers: BFS
expands a frontier (array of node ids) one hop at a time with the shared
:func:`repro.graph.kernels.frontier_expansion` kernel, which matches both the
way the paper's algorithms are specified (cluster-growing steps) and the way
they would be executed as MapReduce rounds; weighted distances come from the
bucketed :func:`repro.graph.kernels.delta_stepping` relaxation.  This module
is the thin graph-object API over those kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.graph import kernels
from repro.graph.csr import CSRGraph
from repro.utils.validation import check_node_batch, check_node_index

UNREACHED = -1

__all__ = [
    "UNREACHED",
    "bfs_distances",
    "dijkstra",
    "multi_source_bfs",
    "double_sweep",
    "BFSResult",
]


@dataclass(frozen=True)
class BFSResult:
    """Result of a (multi-source) BFS.

    Attributes
    ----------
    distances:
        int64 array; ``UNREACHED`` (-1) for nodes not reachable from any source.
    sources:
        int64 array; ``sources[v]`` is the source that first reached ``v``
        (``UNREACHED`` if unreached).  Ties between sources reaching ``v`` in
        the same level are broken arbitrarily but deterministically.
    num_levels:
        Number of frontier-expansion rounds executed (the eccentricity of the
        source set within its reachable region).
    """

    distances: np.ndarray
    sources: np.ndarray
    num_levels: int


def multi_source_bfs(graph: CSRGraph, sources: Sequence[int]) -> BFSResult:
    """Level-synchronous BFS from a set of sources.

    When multiple sources reach a node in the same round, the node is assigned
    to exactly one of them (the :func:`repro.graph.kernels.claim_first`
    tie-break), mirroring the arbitrary tie-breaking of the paper's disjoint
    cluster growing.
    """
    source_array = np.unique(check_node_batch(sources, graph.num_nodes, "sources"))
    distances, owners, num_levels = kernels.frontier_expansion(
        graph.indptr, graph.indices, source_array, degrees=graph.degrees
    )
    return BFSResult(distances=distances, sources=owners, num_levels=num_levels)


def bfs_distances(graph: CSRGraph, source: int) -> np.ndarray:
    """Shortest-path (hop) distances from ``source``; -1 for unreachable."""
    src = check_node_index(source, graph.num_nodes, "source")
    return multi_source_bfs(graph, [src]).distances


def dijkstra(graph: CSRGraph, source: int) -> np.ndarray:
    """Shortest-path distances from ``source`` in a weighted graph; ``inf`` for unreachable."""
    src = check_node_index(source, graph.num_nodes, "source")
    return kernels.delta_stepping(
        graph.indptr, graph.indices, graph.weights, np.asarray([src], dtype=np.int64)
    )[0]


def _farthest(graph: CSRGraph, source: int):
    """The node farthest from ``source`` within its component, and its distance."""
    if graph.is_weighted:
        distances = dijkstra(graph, source)
        reached = np.flatnonzero(np.isfinite(distances))
    else:
        distances = bfs_distances(graph, source)
        reached = np.flatnonzero(distances >= 0)
    farthest = int(reached[np.argmax(distances[reached])])
    return farthest, distances[farthest]


def double_sweep(graph: CSRGraph, *, rng=None) -> Tuple[float, int, int]:
    """Double-sweep lower bound on the diameter (hops, or weighted on a weighted graph).

    A shortest-path sweep from a node drawn from ``rng`` (node 0 without
    one), then another from the farthest node found.  Returns ``(lower_bound, endpoint_a,
    endpoint_b)``; the lower bound equals the eccentricity of ``endpoint_a``
    (an ``int`` in hops, a ``float`` on a weighted graph) and is frequently
    tight on real-world graphs.  This is the standard building block of
    BFS-based diameter estimation (the "BFS" competitor in the paper's
    Table 4).
    """
    n = graph.num_nodes
    if n == 0:
        return (0.0 if graph.is_weighted else 0), -1, -1
    start = int(rng.integers(0, n)) if rng is not None else 0
    farthest, _ = _farthest(graph, start)
    other, lower = _farthest(graph, farthest)
    return (float(lower) if graph.is_weighted else int(lower)), farthest, other
