"""Synthetic graph generators used as stand-ins for the paper's datasets.

Every generator accepts ``weights="uniform" | "degree"`` to emit a weighted
:class:`~repro.graph.csr.CSRGraph` directly in CSR arrays (see
:func:`attach_weights`), so weighted experiments never hand-build edge lists.
"""

from repro.generators.composite import expander_with_path, tail_family, with_tail
from repro.generators.geometric import random_geometric_graph, road_network_graph
from repro.generators.mesh import cycle_graph, mesh_graph, path_graph, torus_graph
from repro.generators.powerlaw import barabasi_albert_graph
from repro.generators.random_graphs import erdos_renyi_graph, gnm_graph, random_regular_graph
from repro.generators.rmat import rmat_graph
from repro.generators.streaming import rmat_edge_chunks, rmat_to_snapshot
from repro.generators.weights import WEIGHT_KINDS, attach_weights

__all__ = [
    "expander_with_path",
    "tail_family",
    "with_tail",
    "random_geometric_graph",
    "road_network_graph",
    "cycle_graph",
    "mesh_graph",
    "path_graph",
    "torus_graph",
    "barabasi_albert_graph",
    "erdos_renyi_graph",
    "gnm_graph",
    "random_regular_graph",
    "rmat_graph",
    "rmat_edge_chunks",
    "rmat_to_snapshot",
    "WEIGHT_KINDS",
    "attach_weights",
]
