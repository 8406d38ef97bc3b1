"""Weighted traversals: exact vectorized Dijkstra and the weighted double sweep.

The **weighted distance** (sum of edge weights along a path) is computed
exactly by :func:`dijkstra` / :func:`multi_source_dijkstra`, which run the
bucketed :func:`repro.graph.kernels.delta_stepping` relaxation
(whole-frontier NumPy rounds) instead of a per-node binary-heap loop, with
bit-identical results.  :func:`weighted_double_sweep` builds the weighted
diameter lower bound of the §7 pipeline on top.  The *hop-bounded* weighted
distance of the decomposition (one hop per parallel round, the lightest
claimant wins) lives in the growth engine's
:class:`~repro.core.growth_engine.MinWeightTieBreak` steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graph import kernels
from repro.weighted.wgraph import WeightedCSRGraph

__all__ = [
    "WeightedBFSResult",
    "dijkstra",
    "multi_source_dijkstra",
    "weighted_double_sweep",
]

@dataclass(frozen=True)
class WeightedBFSResult:
    """Result of a (multi-source) weighted shortest-path computation.

    Attributes
    ----------
    distances:
        float64 array of weighted distances (``inf`` when unreachable).
    sources:
        int64 array; ``sources[v]`` is the source whose shortest-path tree
        contains ``v`` (``-1`` when unreachable).
    """

    distances: np.ndarray
    sources: np.ndarray

    @property
    def reached(self) -> np.ndarray:
        return np.isfinite(self.distances)


def _check_sources(graph: WeightedCSRGraph, sources: Sequence[int]) -> np.ndarray:
    source_array = np.unique(np.asarray(list(sources), dtype=np.int64))
    n = graph.num_nodes
    if source_array.size and (source_array.min() < 0 or source_array.max() >= n):
        raise IndexError("source out of range")
    return source_array


def multi_source_dijkstra(
    graph: WeightedCSRGraph, sources: Sequence[int]
) -> WeightedBFSResult:
    """Exact multi-source weighted shortest paths.

    Runs the shared bucketed delta-stepping kernel: exact Dijkstra distances
    with the hot loop vectorized over whole frontiers.
    """
    source_array = _check_sources(graph, sources)
    dist, owner = kernels.delta_stepping(
        graph.indptr, graph.indices, graph.weights, source_array
    )
    return WeightedBFSResult(distances=dist, sources=owner)


def dijkstra(graph: WeightedCSRGraph, source: int) -> np.ndarray:
    """Single-source weighted shortest-path distances (``inf`` if unreachable)."""
    return multi_source_dijkstra(graph, [source]).distances


def weighted_double_sweep(
    graph: WeightedCSRGraph,
    start: Optional[int] = None,
    *,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, int, int]:
    """Weighted double sweep: a lower bound on the weighted diameter.

    Returns ``(lower_bound, endpoint_a, endpoint_b)``.
    """
    n = graph.num_nodes
    if n == 0:
        return 0.0, -1, -1
    if start is None:
        start = int(rng.integers(0, n)) if rng is not None else 0
    first = dijkstra(graph, start)
    finite = np.flatnonzero(np.isfinite(first))
    a = int(finite[np.argmax(first[finite])])
    second = dijkstra(graph, a)
    finite2 = np.flatnonzero(np.isfinite(second))
    b = int(finite2[np.argmax(second[finite2])])
    return float(second[b]), a, b
