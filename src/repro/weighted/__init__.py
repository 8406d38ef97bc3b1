"""Weighted-graph extension (the paper's §7 outlook) on the unified substrate.

The weighted stack is no longer a parallel universe: :class:`WeightedCSRGraph`
is a thin subclass of the array-backed :class:`~repro.graph.csr.CSRGraph`
core (shared construction, validation, min-weight edge folding, and IO), and
every weighted traversal runs the shared vectorized kernels of
:mod:`repro.graph.kernels` — :func:`dijkstra` / :func:`multi_source_dijkstra`
are the bucketed :func:`~repro.graph.kernels.delta_stepping` relaxation.  On
top sit the hop-bounded weighted decomposition (the shared growth engine with
the :class:`~repro.core.growth_engine.MinWeightTieBreak` policy, controlling
both the weighted radius and the hop radius), and the weighted k-center /
diameter applications; ``DecompositionPipeline(graph, method="weighted")``
runs the whole chain end to end.
"""

from repro.weighted.applications import (
    WeightedDiameterEstimate,
    WeightedKCenterResult,
    estimate_weighted_diameter,
    weighted_gonzalez_kcenter,
    weighted_kcenter,
)
from repro.weighted.decomposition import (
    WeightedClustering,
    weighted_cluster,
    weighted_cluster_with_target_clusters,
)
from repro.weighted.traversal import (
    WeightedBFSResult,
    dijkstra,
    multi_source_dijkstra,
    weighted_double_sweep,
)
from repro.weighted.wgraph import WeightedCSRGraph, as_weighted

__all__ = [
    "WeightedDiameterEstimate",
    "WeightedKCenterResult",
    "estimate_weighted_diameter",
    "weighted_gonzalez_kcenter",
    "weighted_kcenter",
    "WeightedClustering",
    "weighted_cluster",
    "weighted_cluster_with_target_clusters",
    "WeightedBFSResult",
    "dijkstra",
    "multi_source_dijkstra",
    "weighted_double_sweep",
    "WeightedCSRGraph",
    "as_weighted",
]
