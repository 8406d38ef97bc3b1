"""Regenerate the cross-implementation equivalence goldens.

``growth_goldens.json`` pins the *exact* seeded outputs (SHA-256 of the
result arrays plus human-readable summary numbers) of every
growth-loop-driven algorithm: CLUSTER, CLUSTER2, MPX, k-center (CLUSTER-based
and Gonzalez), the single-batch ablation baseline, the weighted
decomposition, and the decomposition-based diameter estimate with its
MR-round accounting.  ``baseline_goldens.json`` pins the Table 4 / Figure 1
baselines — the double-sweep BFS and HADI — with their MR counters and
simulated time, on the six small datasets and a graph with isolated nodes.

``tests/core/test_golden_equivalence.py`` asserts current outputs match these
files bit for bit, so any refactor of the growth machinery (such as the
GrowthEngine port) or of the MR accounting is provably output-preserving.
Regenerate only when an output change is *intended*::

    PYTHONPATH=src python tests/core/goldens/generate.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "growth_goldens.json"
BASELINE_PATH = Path(__file__).resolve().parent / "baseline_goldens.json"
BASELINE_SEEDS = (0, 1, 2)


def array_digest(*arrays: np.ndarray) -> str:
    """SHA-256 over the concatenated raw bytes of the given arrays."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def growth_radii(clustering) -> np.ndarray:
    """Growth radius of every cluster (max growth distance of its members)."""
    radii = np.zeros(clustering.num_clusters, dtype=np.int64)
    np.maximum.at(radii, clustering.assignment, clustering.distance)
    return radii


def clustering_record(clustering) -> dict:
    return {
        "digest": array_digest(
            clustering.assignment.astype(np.int64),
            clustering.centers.astype(np.int64),
            clustering.distance.astype(np.int64),
        ),
        "num_clusters": int(clustering.num_clusters),
        "max_radius": int(clustering.max_radius),
        "growth_steps": int(clustering.growth_steps),
        "radii_digest": array_digest(growth_radii(clustering)),
    }


def weighted_record(clustering) -> dict:
    return {
        "digest": array_digest(
            clustering.assignment.astype(np.int64),
            clustering.centers.astype(np.int64),
            clustering.distance.astype(np.int64),
            clustering.weighted_distance.astype(np.float64),
        ),
        "num_clusters": int(clustering.num_clusters),
        "hop_radius": int(clustering.max_radius),
        "weighted_radius": round(float(clustering.weighted_radius), 9),
    }


def kcenter_record(result) -> dict:
    return {
        "digest": array_digest(
            result.centers.astype(np.int64),
            result.assignment.astype(np.int64),
            result.distance.astype(np.int64),
        ),
        "k": int(result.k),
        "radius": int(result.radius),
    }


def build_graphs() -> dict:
    from repro.generators import barabasi_albert_graph, mesh_graph, road_network_graph
    from repro.graph.builders import disjoint_union

    return {
        "mesh24": mesh_graph(24, 24),
        "ba600": barabasi_albert_graph(600, 3, seed=3),
        "road18": road_network_graph(18, 18, seed=6),
        "two-meshes": disjoint_union([mesh_graph(8, 8), mesh_graph(6, 6)]),
    }


def generate() -> dict:
    from repro.baselines.gonzalez import gonzalez_kcenter
    from repro.baselines.mpx import mpx_decomposition
    from repro.core.cluster import cluster, single_batch_decomposition
    from repro.core.cluster2 import cluster2
    from repro.core.diameter import estimate_diameter
    from repro.core.kcenter import kcenter
    from repro.core.mr_algorithms import mr_estimate_diameter
    from repro.generators import attach_weights

    goldens: dict = {}
    for name, graph in build_graphs().items():
        record: dict = {}
        record["cluster"] = clustering_record(cluster(graph, 1, seed=123))
        record["cluster2"] = clustering_record(cluster2(graph, 1, seed=7).clustering)
        record["mpx"] = clustering_record(mpx_decomposition(graph, 0.15, seed=11))
        record["single-batch"] = clustering_record(
            single_batch_decomposition(graph, 12, seed=17)
        )
        record["kcenter"] = kcenter_record(kcenter(graph, 10, seed=5))
        record["gonzalez"] = kcenter_record(gonzalez_kcenter(graph, 8, seed=13))
        wgraph = attach_weights(graph, "uniform", low=1.0, high=5.0, seed=np.random.default_rng(2))
        record["weighted-cluster"] = weighted_record(cluster(wgraph, 1, seed=9))
        if name != "two-meshes":  # diameter estimation assumes a connected graph
            estimate = estimate_diameter(graph, tau=1, seed=21)
            record["diameter"] = {
                "clustering": clustering_record(estimate.clustering),
                "lower_bound": int(estimate.lower_bound),
                "upper_bound": round(float(estimate.upper_bound), 9),
                "upper_bound_unweighted": int(estimate.upper_bound_unweighted),
                "radius": int(estimate.radius),
                "num_clusters": int(estimate.num_clusters),
                "num_quotient_edges": int(estimate.num_quotient_edges),
            }
            report = mr_estimate_diameter(graph, tau=1, seed=21)
            record["mr-diameter"] = {
                "rounds": int(report.rounds),
                "shuffled_pairs": int(report.shuffled_pairs),
                "upper_bound": round(float(report.estimate.upper_bound), 9),
            }
        goldens[name] = record
    return goldens


def baseline_graphs() -> dict:
    from repro.experiments.datasets import dataset_names, load_dataset
    from repro.graph.csr import CSRGraph

    graphs = {name: load_dataset(name, "small") for name in dataset_names()}
    # Nodes 1 and 4 are isolated: an empty CSR row inside and at the end.
    # The double sweep rejects the graph as disconnected; HADI runs on it.
    graphs["isolated-5"] = CSRGraph.from_edges(np.array([[0, 2], [2, 3]]), num_nodes=5)
    return graphs


def metrics_record(result) -> dict:
    return {
        "rounds": int(result.metrics.rounds),
        "shuffled_pairs": int(result.metrics.shuffled_pairs),
        "max_round_pairs": int(result.metrics.max_round_pairs),
        "simulated_time": float(result.simulated_time),
    }


def bfs_record(graph, seed) -> dict:
    """The double sweep's bounds and MR counters, or the error it raises
    (a disconnected graph has no finite diameter)."""
    from repro.baselines.bfs_diameter import mr_bfs_diameter

    try:
        bfs = mr_bfs_diameter(graph, seed=seed)
    except ValueError as exc:
        return {"error": str(exc)}
    return {
        "estimate": int(bfs.estimate),
        "lower_bound": int(bfs.lower_bound),
        "upper_bound": int(bfs.upper_bound),
        "num_levels": int(bfs.num_levels),
        **metrics_record(bfs),
    }


def generate_baselines() -> dict:
    from repro.baselines.hadi import hadi_diameter

    goldens: dict = {}
    for name, graph in baseline_graphs().items():
        record: dict = {}
        for seed in BASELINE_SEEDS:
            hadi = hadi_diameter(graph, num_registers=16, seed=seed)
            record[f"seed={seed}"] = {
                "bfs": bfs_record(graph, seed),
                "hadi": {
                    "estimate": int(hadi.estimate),
                    "neighborhood_function": [float(x) for x in hadi.neighborhood_function],
                    "iterations": int(hadi.iterations),
                    **metrics_record(hadi),
                },
            }
        goldens[name] = record
    return goldens


def main() -> None:
    for path, records in ((GOLDEN_PATH, generate()), (BASELINE_PATH, generate_baselines())):
        path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
