"""Unit tests for the Clustering result object and its invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import cluster
from repro.core.clustering import Clustering
from repro.generators import mesh_graph
from repro.graph.traversal import multi_source_bfs
from singletons import singleton_clustering  # rootless test layout: pytest puts this dir on sys.path


def growth_radii(clustering):
    """Growth radius of every cluster (max growth distance of its members)."""
    radii = np.zeros(clustering.num_clusters, dtype=np.int64)
    np.maximum.at(radii, clustering.assignment, clustering.distance)
    return radii


class TestDerivedQuantities:
    def test_singleton_clustering(self):
        c = singleton_clustering(5)
        c.validate()
        assert c.num_clusters == 5
        assert c.max_radius == 0
        assert c.cluster_sizes().tolist() == [1] * 5

    def test_radii_and_sizes(self, mesh8):
        c = cluster(mesh8, tau=2, seed=0)
        sizes = c.cluster_sizes()
        radii = growth_radii(c)
        assert sizes.sum() == mesh8.num_nodes
        assert radii.max() == c.max_radius
        assert len(sizes) == len(radii) == c.num_clusters

    def test_members_partition(self, mesh8):
        c = cluster(mesh8, tau=2, seed=1)
        seen = np.zeros(mesh8.num_nodes, dtype=int)
        for cid in range(c.num_clusters):
            seen[c.members(cid)] += 1
        assert np.all(seen == 1)

    def test_members_out_of_range(self, mesh8):
        c = cluster(mesh8, tau=2, seed=1)
        with pytest.raises(IndexError):
            c.members(c.num_clusters)

    def test_summary_keys(self, mesh8):
        c = cluster(mesh8, tau=2, seed=1)
        summary = c.summary()
        assert summary["num_clusters"] == c.num_clusters
        assert summary["algorithm"] == "cluster"
        assert summary["max_radius"] == c.max_radius

    def test_exact_radii_not_larger_than_growth_radii(self, mesh20):
        # The exact radius is the distance to the center inside the
        # cluster's induced subgraph; the growth distance bounds it.
        c = cluster(mesh20, tau=4, seed=2)
        growth = growth_radii(c)
        for cid in range(c.num_clusters):
            sub, mapping = mesh20.subgraph(c.members(cid))
            center = int(np.searchsorted(mapping, c.centers[cid]))
            assert multi_source_bfs(sub, [center]).distances.max() <= growth[cid]


class TestValidation:
    def test_validate_passes_on_real_clustering(self, mesh20):
        c = cluster(mesh20, tau=4, seed=3)
        c.validate(mesh20)

    def test_validate_catches_unassigned_node(self, mesh8):
        c = cluster(mesh8, tau=2, seed=4)
        broken = Clustering(
            num_nodes=c.num_nodes,
            assignment=c.assignment.copy(),
            centers=c.centers.copy(),
            distance=c.distance.copy(),
        )
        broken.assignment[0] = -1
        with pytest.raises(AssertionError):
            broken.validate()

    def test_validate_catches_wrong_center_distance(self, mesh8):
        c = cluster(mesh8, tau=2, seed=5)
        broken = Clustering(
            num_nodes=c.num_nodes,
            assignment=c.assignment.copy(),
            centers=c.centers.copy(),
            distance=c.distance.copy(),
        )
        broken.distance[broken.centers[0]] = 3
        with pytest.raises(AssertionError):
            broken.validate()

    def test_validate_catches_disconnected_cluster(self, mesh20):
        c = cluster(mesh20, tau=4, seed=6)
        broken = Clustering(
            num_nodes=c.num_nodes,
            assignment=c.assignment.copy(),
            centers=c.centers.copy(),
            distance=c.distance.copy(),
        )
        # Teleport one non-center node far from its cluster's growth tree.
        non_center = next(
            v for v in range(c.num_nodes) if broken.distance[v] > 0
        )
        broken.distance[non_center] = 10_000
        with pytest.raises(AssertionError):
            broken.validate(mesh20)

    def test_validate_size_mismatch(self, mesh8):
        c = cluster(mesh8, tau=2, seed=7)
        with pytest.raises(AssertionError):
            c.validate(mesh_graph(3, 3))
