"""Graph substrate: CSR representation, IO, traversal, and diameter tools."""

from repro.graph.builders import (
    add_path,
    connect_graphs,
    disjoint_union,
    from_adjacency_dict,
    relabel_compact,
    symmetrize_edges,
)
from repro.graph.components import (
    component_sizes,
    connected_components,
    is_connected,
    largest_component,
    num_connected_components,
)
from repro.graph.csr import CSRGraph
from repro.graph.diameter_exact import (
    diameter_all_pairs,
    diameter_bounds,
    diameter_ifub,
    exact_diameter,
)
from repro.graph.ingest import from_edge_chunks, ingest_edge_list, largest_component_snapshot
from repro.graph.io import (
    iter_edge_list_chunks,
    load_edge_list,
    save_edge_list,
)
from repro.graph.properties import GraphSummary, degree_statistics, summarize_graph
from repro.graph.snapshot import is_snapshot, load_snapshot, read_snapshot_header, save_snapshot
from repro.graph.traversal import (
    UNREACHED,
    BFSResult,
    bfs_distances,
    bfs_levels,
    double_sweep,
    eccentricity,
    multi_source_bfs,
)

__all__ = [
    "CSRGraph",
    "add_path",
    "connect_graphs",
    "disjoint_union",
    "from_adjacency_dict",
    "relabel_compact",
    "symmetrize_edges",
    "component_sizes",
    "connected_components",
    "is_connected",
    "largest_component",
    "num_connected_components",
    "diameter_all_pairs",
    "diameter_bounds",
    "diameter_ifub",
    "exact_diameter",
    "from_edge_chunks",
    "ingest_edge_list",
    "largest_component_snapshot",
    "iter_edge_list_chunks",
    "load_edge_list",
    "save_edge_list",
    "is_snapshot",
    "load_snapshot",
    "read_snapshot_header",
    "save_snapshot",
    "GraphSummary",
    "degree_statistics",
    "summarize_graph",
    "UNREACHED",
    "BFSResult",
    "bfs_distances",
    "bfs_levels",
    "double_sweep",
    "eccentricity",
    "multi_source_bfs",
]
