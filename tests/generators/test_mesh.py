"""Unit tests for mesh / torus / path / cycle generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.components import is_connected
from repro.graph.diameter_exact import exact_diameter
from repro.generators.mesh import cycle_graph, mesh_graph, path_graph, torus_graph


class TestMesh:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (5, 5), (3, 7)])
    def test_counts(self, rows, cols):
        g = mesh_graph(rows, cols)
        assert g.num_nodes == rows * cols
        expected_edges = rows * (cols - 1) + cols * (rows - 1)
        assert g.num_edges == expected_edges

    def test_connected(self):
        assert is_connected(mesh_graph(6, 9))

    def test_diameter(self):
        assert exact_diameter(mesh_graph(4, 6)) == 3 + 5

    def test_degrees(self):
        g = mesh_graph(5, 5)
        degrees = g.degree()
        assert degrees.min() == 2  # corners
        assert degrees.max() == 4  # interior

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            mesh_graph(0, 5)
        with pytest.raises(ValueError):
            mesh_graph(5, -1)


class TestTorus:
    def test_regular_degree(self):
        g = torus_graph(5, 6)
        assert np.all(g.degree() == 4)

    def test_connected(self):
        assert is_connected(torus_graph(4, 4))

    def test_small_sizes(self):
        g = torus_graph(2, 2)
        assert g.num_nodes == 4
        assert is_connected(g)

    def test_invalid(self):
        with pytest.raises(ValueError):
            torus_graph(0, 3)


class TestPathAndCycle:
    def test_path_structure(self):
        g = path_graph(6)
        assert g.num_edges == 5
        assert exact_diameter(g) == 5

    def test_path_single_node(self):
        assert path_graph(1).num_nodes == 1

    def test_path_invalid(self):
        with pytest.raises(ValueError):
            path_graph(0)

    def test_cycle_structure(self):
        g = cycle_graph(8)
        assert g.num_edges == 8
        assert np.all(g.degree() == 2)
        assert exact_diameter(g) == 4

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)
