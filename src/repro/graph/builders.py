"""Graph construction helpers: edge manipulation, relabeling, composition.

All composition helpers operate on the unified substrate: weighted inputs
keep their edge weights (new edges carry unit weight), so the composite
generators' ``weights=`` option flows through ``add_path`` /
``connect_graphs`` / ``disjoint_union`` unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "from_adjacency_dict",
    "relabel_compact",
    "add_path",
    "disjoint_union",
    "connect_graphs",
]


def from_adjacency_dict(adjacency: Dict[int, Iterable[int]], num_nodes: Optional[int] = None) -> CSRGraph:
    """Build a graph from a ``{node: iterable_of_neighbours}`` mapping."""
    edges = []
    max_node = -1
    for u, neighbours in adjacency.items():
        max_node = max(max_node, int(u))
        for v in neighbours:
            max_node = max(max_node, int(v))
            edges.append((int(u), int(v)))
    n = num_nodes if num_nodes is not None else max_node + 1
    return CSRGraph.from_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2), num_nodes=n)


def relabel_compact(edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Relabel arbitrary integer node ids to a compact ``0..n-1`` range.

    Returns ``(relabelled_edges, original_ids)`` where ``original_ids[i]`` is
    the original id of new node ``i``.  Used by the edge-list loader so that
    SNAP-style files with sparse id spaces produce dense CSR graphs.
    """
    edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edge_array.size == 0:
        return edge_array, np.zeros(0, dtype=np.int64)
    original_ids, inverse = np.unique(edge_array, return_inverse=True)
    return inverse.reshape(-1, 2).astype(np.int64), original_ids


def add_path(graph: CSRGraph, length: int, attach_to: int) -> CSRGraph:
    """Append a simple path of ``length`` new nodes to node ``attach_to``.

    This reproduces the "tail" construction of the paper's third experiment
    (Figure 1): a chain of ``c * diameter`` extra nodes appended to a randomly
    chosen node, stretching the diameter without altering the base structure.
    Weighted bases keep their edge weights; the new chain edges carry unit
    weight.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        return graph
    n = graph.num_nodes
    if not (0 <= attach_to < n):
        raise IndexError(f"attach_to={attach_to} out of range")
    new_nodes = np.arange(n, n + length, dtype=np.int64)
    chain_src = np.concatenate([[attach_to], new_nodes[:-1]])
    chain_edges = np.stack([chain_src, new_nodes], axis=1)
    base_edges, base_weights = graph.edge_list()
    edges = np.concatenate([base_edges, chain_edges], axis=0)
    weights = None
    if base_weights is not None:
        weights = np.concatenate([base_weights, np.ones(length)])
    return CSRGraph.from_edges(edges, num_nodes=n + length, weights=weights)


def disjoint_union(graphs: Sequence[CSRGraph]) -> CSRGraph:
    """Disjoint union of several graphs (node ids shifted block-wise).

    Edge weights are preserved when *every* input is weighted; mixing weighted
    and unweighted inputs is rejected (lift the unweighted ones first).
    """
    if not graphs:
        return CSRGraph.empty(0)
    weighted_flags = [g.weights is not None for g in graphs]
    if any(weighted_flags) and not all(weighted_flags):
        raise ValueError(
            "cannot union weighted and unweighted graphs; give the unweighted "
            "inputs weights first (repro.generators.attach_weights)"
        )
    offset = 0
    all_edges = []
    all_weights = []
    for g in graphs:
        if g.num_edges:
            edges, weights = g.edge_list()
            all_edges.append(edges + offset)
            if weights is not None:
                all_weights.append(weights)
        offset += g.num_nodes
    if all_edges:
        edges = np.concatenate(all_edges, axis=0)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    weights = np.concatenate(all_weights) if all_weights else None
    if all(weighted_flags) and weights is None:
        weights = np.zeros(0, dtype=np.float64)
    return CSRGraph.from_edges(edges, num_nodes=offset, weights=weights)


def connect_graphs(first: CSRGraph, second: CSRGraph, bridges: Sequence[Tuple[int, int]]) -> CSRGraph:
    """Union of two graphs plus ``bridges`` edges ``(u_in_first, v_in_second)``.

    Used by the composite generators (expander + path of the paper's Section 3
    example) to attach structures with controlled connectivity.  When both
    inputs are weighted the bridges carry unit weight.
    """
    union = disjoint_union([first, second])
    if not bridges:
        return union
    offset = first.num_nodes
    bridge_edges = np.asarray(
        [(int(u), int(v) + offset) for u, v in bridges], dtype=np.int64
    )
    if bridge_edges.size:
        if bridge_edges[:, 0].max() >= first.num_nodes or bridge_edges[:, 0].min() < 0:
            raise IndexError("bridge endpoint out of range in first graph")
        if (bridge_edges[:, 1] - offset).max() >= second.num_nodes:
            raise IndexError("bridge endpoint out of range in second graph")
    union_edges, union_weights = union.edge_list()
    edges = np.concatenate([union_edges, bridge_edges], axis=0)
    weights = None
    if union_weights is not None:
        weights = np.concatenate([union_weights, np.ones(bridge_edges.shape[0])])
    return CSRGraph.from_edges(edges, num_nodes=union.num_nodes, weights=weights)
