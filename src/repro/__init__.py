"""repro — reproduction of Ceccarello, Pietracaprina, Pucci & Upfal (SPAA 2015).

*Space and Time Efficient Parallel Graph Decomposition, Clustering, and
Diameter Approximation.*

The package provides:

* a **serving plane** (:mod:`repro.serving`): the :class:`GraphService`
  precomputes one CLUSTER2 / weighted decomposition and then answers batched
  distance / same-cluster / eccentricity / k-center queries as pure
  vectorized lookups, with content-hashed snapshots for cold starts
  (``python -m repro.experiments serve``);
* the CLUSTER / CLUSTER2 parallel graph decompositions (the paper's primary
  contribution) and their applications — k-center approximation, diameter
  approximation, and the batch-first approximate distance oracle;
* every substrate needed to run and evaluate them from scratch: a CSR graph
  library, synthetic workload generators, a metered MR(M_G, M_L) MapReduce
  simulation engine, and the baselines (MPX, BFS, HADI/ANF, Gonzalez);
* an experiment harness regenerating every table and figure of the paper's
  evaluation section (``python -m repro.experiments``).

Quick start::

    from repro import GraphService, generators

    graph = generators.mesh_graph(100, 100)
    service = GraphService.build(graph, seed=0)
    lower, upper = service.query_distance([0, 17, 23], [9_999, 42, 23])
    print(service.num_clusters, lower, upper)
"""

from repro import analysis, baselines, core, generators, graph, mapreduce, serving, utils, weighted
from repro.baselines import (
    bfs_diameter,
    gonzalez_kcenter,
    hadi_diameter,
    mpx_decomposition,
    mr_bfs_diameter,
)
from repro.core import (
    Clustering,
    DiameterEstimate,
    DistanceOracle,
    KCenterResult,
    build_distance_oracle,
    build_quotient_graph,
    cluster,
    cluster2,
    estimate_diameter,
    kcenter,
    mr_estimate_diameter,
    quotient_diameter,
)
from repro.graph import CSRGraph, load_edge_list
from repro.serving import GraphService

__version__ = "1.1.0"

__all__ = [
    # Serving plane (the production query surface)
    "GraphService",
    "serving",
    "DistanceOracle",
    "build_distance_oracle",
    # Decomposition algorithms and applications
    "cluster",
    "cluster2",
    "Clustering",
    "estimate_diameter",
    "DiameterEstimate",
    "kcenter",
    "KCenterResult",
    "build_quotient_graph",
    "quotient_diameter",
    "mr_estimate_diameter",
    # Graph substrate
    "CSRGraph",
    "load_edge_list",
    # Baselines
    "bfs_diameter",
    "gonzalez_kcenter",
    "hadi_diameter",
    "mpx_decomposition",
    "mr_bfs_diameter",
    # Subpackages
    "analysis",
    "baselines",
    "core",
    "generators",
    "graph",
    "mapreduce",
    "utils",
    "weighted",
    "__version__",
]
