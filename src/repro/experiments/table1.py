"""Experiment E1 — Table 1: characteristics of the benchmark graphs.

For every dataset stand-in we report the number of nodes, edges and the
reference diameter, side by side with the corresponding row of the paper's
Table 1 (the absolute sizes differ by design — see DESIGN.md — but the
regimes match: small-diameter social graphs vs. long-diameter road/mesh
graphs).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.datasets import DATASETS, load_dataset, reference_diameter

__all__ = ["table1_row"]


def table1_row(
    name: str, *, scale: str = "default", config: ExperimentConfig = DEFAULT_CONFIG
) -> Dict:
    """The Table 1 row for one dataset (the per-cell unit of the suite)."""
    spec = DATASETS[name]
    graph = load_dataset(name, scale)
    diameter = reference_diameter(name, scale)
    paper_nodes, paper_edges, paper_diameter = spec.paper_row
    return {
        "dataset": name,
        "regime": spec.regime,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "diameter": diameter,
        "paper_nodes": paper_nodes,
        "paper_edges": paper_edges,
        "paper_diameter": paper_diameter,
    }
