"""Unit tests for connected-component utilities."""

from __future__ import annotations

import numpy as np

from repro.graph.components import (
    connected_components,
    is_connected,
    largest_component,
    num_connected_components,
)
from repro.graph.csr import CSRGraph
from repro.generators import mesh_graph, path_graph


class TestConnectedComponents:
    def test_connected_graph_single_label(self, mesh8):
        labels = connected_components(mesh8)
        assert set(labels.tolist()) == {0}
        assert is_connected(mesh8)

    def test_disconnected_labels(self, disconnected_graph):
        labels = connected_components(disconnected_graph)
        assert num_connected_components(disconnected_graph) == 3
        # Every edge stays within a component.
        for u, v in disconnected_graph.edges():
            assert labels[u] == labels[v]

    def test_isolated_nodes_are_components(self):
        g = CSRGraph.from_edges([(0, 1)], num_nodes=4)
        assert num_connected_components(g) == 3

    def test_empty_graph(self):
        g = CSRGraph.empty(0)
        assert num_connected_components(g) == 0
        assert not is_connected(g)

    def test_matches_networkx(self, disconnected_graph):
        import networkx as nx

        from tests.conftest import to_networkx

        expected = nx.number_connected_components(to_networkx(disconnected_graph))
        assert num_connected_components(disconnected_graph) == expected


class TestComponentSizes:
    def test_sizes_sorted_descending(self, disconnected_graph):
        sizes = np.sort(np.bincount(connected_components(disconnected_graph)))[::-1]
        assert sizes.sum() == disconnected_graph.num_nodes
        assert sizes.tolist() == [25, 16, 3]

    def test_empty(self):
        assert connected_components(CSRGraph.empty(0)).size == 0


class TestLargestComponent:
    def test_extracts_largest(self, disconnected_graph):
        sub, ids = largest_component(disconnected_graph)
        assert sub.num_nodes == 25
        assert is_connected(sub)
        assert ids.size == 25

    def test_connected_graph_unchanged_size(self, mesh8):
        sub, ids = largest_component(mesh8)
        assert sub.num_nodes == mesh8.num_nodes
        assert sub.num_edges == mesh8.num_edges

    def test_empty(self):
        sub, ids = largest_component(CSRGraph.empty(0))
        assert sub.num_nodes == 0 and ids.size == 0
