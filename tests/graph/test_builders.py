"""Unit tests for graph construction helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builders import (
    add_path,
    connect_graphs,
    disjoint_union,
    from_adjacency_dict,
    relabel_compact,
)
from repro.graph.components import is_connected, num_connected_components
from repro.graph.csr import CSRGraph
from repro.graph.traversal import bfs_distances
from repro.generators import mesh_graph, path_graph


class TestFromAdjacencyDict:
    def test_basic(self):
        g = from_adjacency_dict({0: [1, 2], 1: [2]})
        assert g.num_nodes == 3
        assert g.num_edges == 3

    def test_explicit_num_nodes(self):
        g = from_adjacency_dict({0: [1]}, num_nodes=5)
        assert g.num_nodes == 5


class TestRelabel:
    def test_compacts_sparse_ids(self):
        edges, originals = relabel_compact(np.asarray([[100, 200], [200, 4000]]))
        assert edges.max() == 2
        assert originals.tolist() == [100, 200, 4000]

    def test_preserves_structure(self):
        edges, originals = relabel_compact(np.asarray([[10, 20], [20, 30], [30, 10]]))
        g = CSRGraph.from_edges(edges)
        assert g.num_edges == 3
        assert is_connected(g)

    def test_empty(self):
        edges, originals = relabel_compact(np.zeros((0, 2), dtype=np.int64))
        assert edges.size == 0 and originals.size == 0


class TestAddPath:
    def test_extends_diameter(self):
        g = mesh_graph(5, 5)
        extended = add_path(g, 10, attach_to=0)
        assert extended.num_nodes == g.num_nodes + 10
        dist = bfs_distances(extended, 0)
        assert dist[extended.num_nodes - 1] == 10

    def test_zero_length_is_identity(self):
        g = path_graph(4)
        assert add_path(g, 0, attach_to=0) == g

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            add_path(path_graph(4), -1, attach_to=0)

    def test_attach_out_of_range(self):
        with pytest.raises(IndexError):
            add_path(path_graph(4), 2, attach_to=10)

    def test_preserves_connectivity(self):
        g = mesh_graph(4, 4)
        extended = add_path(g, 5, attach_to=7)
        assert is_connected(extended)


class TestDisjointUnion:
    def test_counts(self):
        a, b = mesh_graph(3, 3), path_graph(4)
        u = disjoint_union([a, b])
        assert u.num_nodes == a.num_nodes + b.num_nodes
        assert u.num_edges == a.num_edges + b.num_edges
        assert num_connected_components(u) == 2

    def test_empty_list(self):
        assert disjoint_union([]).num_nodes == 0

    def test_with_edgeless_graph(self):
        u = disjoint_union([CSRGraph.empty(3), path_graph(3)])
        assert u.num_nodes == 6
        assert u.num_edges == 2


class TestConnectGraphs:
    def test_bridge_connects(self):
        a, b = mesh_graph(3, 3), path_graph(5)
        joined = connect_graphs(a, b, bridges=[(0, 0)])
        assert is_connected(joined)
        assert joined.num_edges == a.num_edges + b.num_edges + 1

    def test_no_bridges_stays_disconnected(self):
        joined = connect_graphs(mesh_graph(2, 2), path_graph(3), bridges=[])
        assert num_connected_components(joined) == 2

    def test_bad_bridge_rejected(self):
        with pytest.raises(IndexError):
            connect_graphs(mesh_graph(2, 2), path_graph(3), bridges=[(99, 0)])
        with pytest.raises(IndexError):
            connect_graphs(mesh_graph(2, 2), path_graph(3), bridges=[(0, 99)])
