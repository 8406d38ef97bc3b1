"""Analysis helpers: clustering statistics and table rendering."""

from repro.analysis.stats import ClusteringReport, clustering_report, edge_cut
from repro.analysis.tables import format_value, render_csv, render_table

__all__ = [
    "ClusteringReport",
    "clustering_report",
    "edge_cut",
    "format_value",
    "render_csv",
    "render_table",
]
