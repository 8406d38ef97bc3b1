"""Frozen pre-refactor heapq traversals (reference implementations).

These are verbatim copies of the binary-heap loops that lived in
``repro/weighted/traversal.py`` before the kernel unification.  They are kept
in the test tree — like the growth goldens in ``tests/core/goldens`` — so
``test_kernel_equivalence.py`` can pin the vectorized kernels' outputs bit for
bit against the historical semantics.  Do not "improve" them.
"""

from __future__ import annotations

import heapq
from typing import Sequence, Tuple

import numpy as np


def frozen_multi_source_dijkstra(graph, sources: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The pre-refactor binary-heap multi-source Dijkstra, verbatim."""
    n = graph.num_nodes
    source_array = np.unique(np.asarray(list(sources), dtype=np.int64))
    if source_array.size and (source_array.min() < 0 or source_array.max() >= n):
        raise IndexError("source out of range")
    dist = np.full(n, np.inf)
    owner = np.full(n, -1, dtype=np.int64)
    heap = []
    for s in source_array:
        dist[s] = 0.0
        owner[s] = s
        heap.append((0.0, int(s), int(s)))
    heapq.heapify(heap)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    while heap:
        d, u, root = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for pos in range(indptr[u], indptr[u + 1]):
            v = int(indices[pos])
            nd = d + float(weights[pos])
            if nd < dist[v]:
                dist[v] = nd
                owner[v] = root
                heapq.heappush(heap, (nd, v, root))
    return dist, owner


def frozen_dijkstra(graph, source: int) -> np.ndarray:
    """Single-source distances from the frozen heapq loop."""
    return frozen_multi_source_dijkstra(graph, [source])[0]
