"""Unit tests for the analysis helpers (clustering stats, tables)."""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import clustering_report, edge_cut
from repro.analysis.tables import format_value, render_csv, render_table
from repro.core.cluster import cluster
from repro.generators import mesh_graph


class TestClusteringReport:
    def test_report_consistency(self, mesh20):
        clustering = cluster(mesh20, 4, seed=3)
        report = clustering_report(mesh20, clustering)
        assert report.num_clusters == clustering.num_clusters
        assert report.max_radius == clustering.max_radius
        assert report.quotient_edges <= report.cut_edges
        assert report.as_row("mesh")["dataset"] == "mesh"

    def test_edge_cut_single_cluster_zero(self, mesh8):
        from repro.core.clustering import Clustering

        single = Clustering(
            num_nodes=mesh8.num_nodes,
            assignment=np.zeros(mesh8.num_nodes, dtype=np.int64),
            centers=np.asarray([0], dtype=np.int64),
            distance=np.zeros(mesh8.num_nodes, dtype=np.int64),
        )
        assert edge_cut(mesh8, single) == 0

    def test_edge_cut_singletons_all_edges(self, mesh8):
        from repro.core.clustering import Clustering

        singles = Clustering.singleton_clustering(mesh8.num_nodes)
        assert edge_cut(mesh8, singles) == mesh8.num_edges

    def test_edge_cut_weighted_graph(self):
        from repro.core.clustering import Clustering

        g = mesh_graph(4, 4, weights="uniform", seed=2)
        singles = Clustering.singleton_clustering(g.num_nodes)
        assert edge_cut(g, singles) == g.num_edges


class TestTables:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(True) == "yes"
        assert format_value(3.14159) == "3.14"
        assert format_value(12345) == "12,345"
        assert format_value(float("nan")) == "-"
        assert format_value("text") == "text"

    def test_render_table_contains_data(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
        text = render_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert "10" in text

    def test_render_table_explicit_columns(self):
        text = render_table([{"x": 1, "y": 2}], columns=["y"])
        assert "x" not in text.splitlines()[0]

    def test_render_csv(self):
        text = render_csv([{"a": 1, "b": "z"}])
        assert text.splitlines()[0] == "a,b"
        assert text.splitlines()[1] == "1,z"
