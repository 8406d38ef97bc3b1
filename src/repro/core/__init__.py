"""Core algorithms: CLUSTER, CLUSTER2, k-center, diameter estimation, oracle."""

from repro.core.cluster import cluster, cluster_with_target_clusters
from repro.core.cluster2 import Cluster2Result, cluster2
from repro.core.clustering import Clustering, GrowthStepStats, IterationStats
from repro.core.diameter import DiameterEstimate, estimate_diameter
from repro.core.growth_engine import GrowthEngine
from repro.core.kcenter import KCenterResult, evaluate_centers, kcenter, merge_clusters_to_k
from repro.core.mr_algorithms import (
    MRExecutionReport,
    mr_estimate_diameter,
)
from repro.core.oracle import (
    DistanceOracle,
    build_distance_oracle,
    default_oracle_tau,
)
from repro.core.quotient import (
    build_quotient_graph,
    quotient_apsp,
    quotient_diameter,
)

__all__ = [
    "cluster",
    "cluster_with_target_clusters",
    "Cluster2Result",
    "cluster2",
    "Clustering",
    "GrowthStepStats",
    "IterationStats",
    "DiameterEstimate",
    "estimate_diameter",
    "GrowthEngine",
    "KCenterResult",
    "evaluate_centers",
    "kcenter",
    "merge_clusters_to_k",
    "MRExecutionReport",
    "mr_estimate_diameter",
    "DistanceOracle",
    "build_distance_oracle",
    "default_oracle_tau",
    "build_quotient_graph",
    "quotient_apsp",
    "quotient_diameter",
]
