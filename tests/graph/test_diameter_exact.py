"""Unit tests for exact diameter computation."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.generators import barabasi_albert_graph, cycle_graph, mesh_graph, path_graph, road_network_graph
from repro.generators.rmat import rmat_graph
from repro.graph import kernels
from repro.graph.components import largest_component
from repro.graph.csr import CSRGraph
from repro.graph.diameter_exact import bounded_diameter, exact_diameter
from repro.graph.traversal import double_sweep
from tests.conftest import to_networkx

from kernel_reference import eccentricities_loop  # rootless test layout: pytest puts this dir on sys.path


def all_pairs_diameter(graph: CSRGraph) -> int:
    """Reference: the largest eccentricity over every node."""
    nodes = np.arange(graph.num_nodes, dtype=np.int64)
    return int(eccentricities_loop(graph.indptr, graph.indices, nodes, degrees=graph.degrees).max())


ZOO = {
    "path": lambda: path_graph(40),
    "cycle": lambda: cycle_graph(41),
    "mesh": lambda: mesh_graph(17, 23),
    "ba": lambda: barabasi_albert_graph(600, 2, seed=3),
    "road": lambda: largest_component(road_network_graph(30, 30, seed=2))[0],
    "rmat": lambda: largest_component(rmat_graph(10, 8, seed=5))[0],
}


class TestExactOnKnownGraphs:
    @pytest.mark.parametrize("n,expected", [(2, 1), (5, 4), (17, 16)])
    def test_path(self, n, expected):
        assert exact_diameter(path_graph(n)) == expected

    @pytest.mark.parametrize("n,expected", [(4, 2), (9, 4), (12, 6)])
    def test_cycle(self, n, expected):
        assert exact_diameter(cycle_graph(n)) == expected

    @pytest.mark.parametrize("rows,cols", [(3, 3), (5, 8), (7, 2)])
    def test_mesh(self, rows, cols):
        assert exact_diameter(mesh_graph(rows, cols)) == (rows - 1) + (cols - 1)

    def test_single_node(self):
        assert exact_diameter(CSRGraph.empty(1)) == 0
        assert bounded_diameter(np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64)) == (0.0, 1)


class TestMatchesAllEccentricities:
    """exact_diameter equals the largest eccentricity over all nodes."""

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_zoo(self, name):
        graph = ZOO[name]()
        assert exact_diameter(graph) == all_pairs_diameter(graph)

    @pytest.mark.parametrize("budget", [1, 700, 1 << 16])
    @pytest.mark.parametrize("name", ["mesh", "road", "rmat"])
    def test_tile_budget_moves_rows_not_result(self, name, budget):
        graph = ZOO[name]()
        with mock.patch.object(kernels, "_TILE_ARCS", budget):
            diameter, rows = bounded_diameter(graph.indptr, graph.indices)
        assert diameter == all_pairs_diameter(graph)
        assert 1 <= rows <= graph.num_nodes

    def test_computes_few_rows(self):
        graph = mesh_graph(40, 40)
        diameter, rows = bounded_diameter(graph.indptr, graph.indices)
        assert diameter == 78
        assert rows < graph.num_nodes // 20


class TestAgreementWithNetworkx:
    def test_random_ba_graph(self, ba_graph):
        import networkx as nx

        expected = nx.diameter(to_networkx(ba_graph))
        assert exact_diameter(ba_graph) == expected
        assert all_pairs_diameter(ba_graph) == expected

    def test_road_graph(self, road_graph):
        import networkx as nx

        expected = nx.diameter(to_networkx(road_graph))
        assert exact_diameter(road_graph) == expected


class TestBoundsAndErrors:
    def test_bounds_sandwich(self, ba_graph):
        import networkx as nx

        true_diameter = nx.diameter(to_networkx(ba_graph))
        lower, a, _ = double_sweep(ba_graph)
        assert lower <= true_diameter <= 2 * eccentricities_loop(ba_graph.indptr, ba_graph.indices, [a])[0]

    def test_disconnected_rejected(self, disconnected_graph):
        with pytest.raises(ValueError, match="disconnected"):
            exact_diameter(disconnected_graph)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_diameter(CSRGraph.empty(0))
