"""Connected components and related reachability utilities."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph import kernels
from repro.graph.csr import CSRGraph

__all__ = [
    "connected_components",
    "num_connected_components",
    "is_connected",
    "largest_component",
]


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Label the connected components of ``graph``.

    Returns an int64 array ``labels`` with ``labels[v]`` in ``0..c-1``;
    component ids are assigned in increasing order of their smallest node.
    Runs the shared :func:`repro.graph.kernels.component_labels` kernel — a
    sequence of vectorized frontier sweeps, one per component, so the total
    work is ``O(n + m)``.
    """
    return kernels.component_labels(graph.indptr, graph.indices, degrees=graph.degrees)


def num_connected_components(graph: CSRGraph) -> int:
    """Number of connected components (isolated nodes count as components)."""
    if graph.num_nodes == 0:
        return 0
    return int(connected_components(graph).max()) + 1


def is_connected(graph: CSRGraph) -> bool:
    """True if the graph is non-empty and has a single connected component."""
    return graph.num_nodes > 0 and num_connected_components(graph) == 1


def largest_component(graph: CSRGraph) -> Tuple[CSRGraph, np.ndarray]:
    """Induced subgraph on the largest connected component.

    Returns ``(subgraph, original_ids)``.  Used by the dataset registry to
    mimic the standard preprocessing of SNAP graphs (experiments in the paper
    are run on connected graphs).
    """
    if graph.num_nodes == 0:
        return graph, np.zeros(0, dtype=np.int64)
    labels = connected_components(graph)
    sizes = np.bincount(labels)
    biggest = int(np.argmax(sizes))
    nodes = np.flatnonzero(labels == biggest)
    return graph.subgraph(nodes)
