"""Clustering-quality statistics reported by the experiment tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clustering import Clustering
from repro.core.quotient import build_quotient_graph
from repro.graph.csr import CSRGraph

__all__ = ["ClusteringReport", "clustering_report", "edge_cut"]


def edge_cut(graph: CSRGraph, clustering: Clustering) -> int:
    """Number of graph edges whose endpoints lie in different clusters."""
    edges = graph.edges()
    if edges.size == 0:
        return 0
    cu = clustering.assignment[edges[:, 0]]
    cv = clustering.assignment[edges[:, 1]]
    return int(np.count_nonzero(cu != cv))


@dataclass(frozen=True)
class ClusteringReport:
    """The quantities of one Table 2 row for one algorithm.

    Attributes
    ----------
    algorithm:
        Producing algorithm name.
    num_clusters:
        ``n_C`` — number of clusters = quotient-graph nodes.
    quotient_edges:
        ``m_C`` — number of quotient-graph edges (inter-cluster adjacencies).
    max_radius:
        ``r`` — maximum cluster radius.
    cut_edges:
        Number of original edges crossing clusters (MPX's objective).
    growth_steps:
        Total parallel growing steps (proxy for MR rounds).
    """

    algorithm: str
    num_clusters: int
    quotient_edges: int
    max_radius: int
    cut_edges: int
    growth_steps: int

    def as_row(self, dataset: str = "") -> dict:
        row = {
            "dataset": dataset,
            "algorithm": self.algorithm,
            "n_C": self.num_clusters,
            "m_C": self.quotient_edges,
            "r": self.max_radius,
        }
        return row


def clustering_report(graph: CSRGraph, clustering: Clustering) -> ClusteringReport:
    """Compute the Table 2 quantities for a clustering of ``graph``."""
    quotient = build_quotient_graph(graph, clustering, weighted=False)
    return ClusteringReport(
        algorithm=clustering.algorithm,
        num_clusters=clustering.num_clusters,
        quotient_edges=quotient.num_edges,
        max_radius=clustering.max_radius,
        cut_edges=edge_cut(graph, clustering),
        growth_steps=clustering.growth_steps,
    )
