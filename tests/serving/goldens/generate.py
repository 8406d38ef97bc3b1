"""Regenerate ``replay_checksums.json``: the bytes the serving plane serves.

Three services are pinned:

* ``mesh30-hop``: CLUSTER2 on a 30 x 30 mesh at τ = 12 (k = 89 clusters);
* ``road20-weighted``: the weighted decomposition of a road network's largest
  component with uniform weights in [0.5, 3) (non-integer, ``w_min ≠ 1``);
* ``two-meshes``: two disjoint meshes, so both quotient matrices hold
  ``inf`` between the components.

Each record holds the SHA-256 of both oracle matrices and the
:func:`~repro.serving.replay` checksum of two logs at batch sizes 1, 64 and
8192: a seeded synthetic log and a hand-made one (``u == v`` pairs,
same-cluster pairs, centers and their members, cross-cluster centers).
``tests/serving/test_replay_goldens.py`` asserts that the current code
reproduces every entry.  Regenerate only when an output change is
intended::

    PYTHONPATH=src python tests/serving/goldens/generate.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "replay_checksums.json"
BATCH_SIZES = (1, 64, 8192)
SYNTHETIC_QUERIES = 2_000


def build_services() -> dict:
    from repro.generators import attach_weights, mesh_graph, road_network_graph
    from repro.graph.builders import disjoint_union
    from repro.graph.components import largest_component
    from repro.serving import GraphService

    road, _ = largest_component(road_network_graph(20, 20, seed=3))
    weighted = attach_weights(road, "uniform", low=0.5, high=3.0, seed=np.random.default_rng(5))
    return {
        "mesh30-hop": GraphService.build(mesh_graph(30, 30), tau=12, seed=0),
        "road20-weighted": GraphService.build(weighted, tau=2, seed=1),
        "two-meshes": GraphService.build(
            disjoint_union([mesh_graph(8, 8), mesh_graph(6, 6)]), tau=2, seed=0
        ),
    }


def handmade_log(service):
    """Edge cases drawn from the service's own clustering, in a fixed order."""
    from repro.serving import QUERY_KINDS, QueryLog

    code = {name: QUERY_KINDS.index(name) for name in QUERY_KINDS}
    queries = []
    k = service.num_clusters
    for c in range(min(k, 12)):
        center = int(service.centers[c])
        members = np.flatnonzero(service.assignment == c)
        far = int(members[np.argmax(service.center_distance[members])])
        other = int(service.centers[(c + 1) % k])
        queries += [
            ("distance", center, center),
            ("distance", far, far),
            ("distance", center, far),
            ("distance", far, center),
            ("distance", center, other),
            ("distance", far, other),
            ("same-cluster", center, far),
            ("same-cluster", far, far),
            ("same-cluster", center, other),
            ("eccentricity", center, -1),
            ("eccentricity", far, -1),
            ("center", center, -1),
            ("center", far, -1),
        ]
        plain = members[members != center]
        if plain.size >= 2:
            queries.append(("distance", int(plain[0]), int(plain[-1])))
    last = service.num_nodes - 1
    queries += [("distance", 0, last), ("distance", last, 0), ("center", last, -1)]
    return QueryLog(
        kinds=np.asarray([code[name] for name, _, _ in queries], dtype=np.int8),
        us=np.asarray([u for _, u, _ in queries], dtype=np.int64),
        vs=np.asarray([v for _, _, v in queries], dtype=np.int64),
    )


def build_logs(service) -> dict:
    from repro.serving import synthetic_workload

    return {
        "synthetic": synthetic_workload(service.num_nodes, SYNTHETIC_QUERIES, seed=11),
        "handmade": handmade_log(service),
    }


def matrix_digest(matrix: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix, dtype=np.float64).tobytes()).hexdigest()


def generate() -> dict:
    from repro.serving import replay

    records: dict = {}
    for name, service in build_services().items():
        records[name] = {
            "num_clusters": int(service.num_clusters),
            "upper_matrix": matrix_digest(service.oracle.upper_matrix),
            "lower_matrix": matrix_digest(service.oracle.lower_matrix),
            "replay": {
                log_name: {
                    f"batch={size}": replay(service, log, batch_size=size).checksum
                    for size in BATCH_SIZES
                }
                for log_name, log in build_logs(service).items()
            },
        }
    return records


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
