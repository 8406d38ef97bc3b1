"""Bit-identity tests for the optimized frontier kernels.

The sort-free claims, the direction-optimizing expansion, and the
pair-id multi-source BFS are pure execution-strategy changes: every
test here pins an optimized path against its frozen reference in
``kernel_reference.py`` (stable argsort/lexsort claims, push-only levels,
one-BFS-per-source loops) and asserts byte-for-byte equality — on in-memory
graphs, on mmap-loaded snapshots, and through the
:class:`~repro.core.growth_engine.GrowthEngine` including its MR step
accounting.  Directions are forced by patching the kernels' private pull
thresholds (``kernel_reference.forced_direction``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import cluster
from repro.core.growth_engine import GrowthEngine
from repro.core.quotient import build_quotient_graph, quotient_apsp
from repro.generators import mesh_graph, path_graph, rmat_graph
from repro.graph import kernels
from repro.graph.builders import disjoint_union
from repro.graph.csr import CSRGraph
from repro.graph.snapshot import load_snapshot, save_snapshot
from repro.graph.traversal import multi_source_bfs

from kernel_reference import (  # rootless test layout: pytest puts this dir on sys.path
    eccentricities_loop,
    forced_direction,
    sorted_claim_first,
    sorted_claim_min,
)

DIRECTIONS = ("push", "pull", "auto")


def grow_from(graph: CSRGraph, centers) -> GrowthEngine:
    """All ``centers`` up front, grown until no step makes progress."""
    engine = GrowthEngine(graph)
    engine.add_centers(centers)
    engine.grow_to_exhaustion()
    return engine


def star_graph(num_leaves: int) -> CSRGraph:
    edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
    return CSRGraph.from_edges(edges, num_nodes=num_leaves + 1)


def graph_zoo():
    return {
        "rmat": rmat_graph(10, 8, seed=3),
        "mesh": mesh_graph(12, 17),
        "disconnected": disjoint_union([mesh_graph(5, 5), path_graph(30), star_graph(8)]),
        "star": star_graph(64),
        "isolated": CSRGraph.from_edges([(0, 1), (2, 3)], num_nodes=8),
    }


@pytest.fixture
def stats_guard():
    """Leave the module-level kernel-stats switch the way we found it."""
    was_enabled = kernels.kernel_stats_enabled()
    yield
    kernels.enable_kernel_stats(was_enabled)


# ---------------------------------------------------------------------- #
# Sort-free claims vs the frozen argsort/lexsort reference
# ---------------------------------------------------------------------- #
class TestSortFreeClaims:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_claim_first_matches_sorted_reference(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 5000))
        n = 2000
        dst = rng.integers(0, n, count)
        src = rng.integers(0, n, count)
        ref_targets, ref_parents = sorted_claim_first(dst, src)
        targets, parents = kernels.claim_first(
            dst, src, workspace=kernels.ClaimWorkspace(n)
        )
        assert np.array_equal(ref_targets, targets)
        assert np.array_equal(ref_parents, parents)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_claim_min_matches_sorted_reference(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 5000))
        n = 2000
        dst = rng.integers(0, n, count)
        src = rng.integers(0, n, count)
        # Quantized keys force plenty of exact ties, exercising the
        # first-claimant tie-break of the scatter path.
        key = np.round(rng.random(count), 2)
        reference = sorted_claim_min(dst, src, key)
        scatter = kernels.claim_min(dst, src, key, workspace=kernels.ClaimWorkspace(n))
        for ref, got in zip(reference, scatter):
            assert np.array_equal(ref, got)

    def test_empty_inputs(self):
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0, dtype=np.float64)
        workspace = kernels.ClaimWorkspace(10)
        targets, parents = kernels.claim_first(empty_i, empty_i, workspace=workspace)
        assert targets.size == parents.size == 0
        targets, parents, keys = kernels.claim_min(
            empty_i, empty_i, empty_f, workspace=workspace
        )
        assert targets.size == parents.size == keys.size == 0

    def test_workspace_reuse_across_levels(self):
        # The scratch is rank-stamped, never cleared: back-to-back calls with
        # overlapping targets must not leak winners across levels.
        workspace = kernels.ClaimWorkspace(10)
        dst = np.asarray([4, 4, 7], dtype=np.int64)
        first = kernels.claim_first(dst, np.asarray([1, 2, 3]), workspace=workspace)
        again = kernels.claim_first(
            np.asarray([7, 4], dtype=np.int64), np.asarray([8, 9]), workspace=workspace
        )
        assert first[0].tolist() == [4, 7] and first[1].tolist() == [1, 3]
        assert again[0].tolist() == [4, 7] and again[1].tolist() == [9, 8]


# ---------------------------------------------------------------------- #
# Direction-optimizing expansion: push == pull == auto, everywhere
# ---------------------------------------------------------------------- #
class TestDirectionEquivalence:
    @pytest.mark.parametrize("name", ["rmat", "mesh", "disconnected", "star", "isolated"])
    @pytest.mark.parametrize("num_sources", [1, 3])
    def test_push_pull_auto_identical(self, name, num_sources):
        graph = graph_zoo()[name]
        rng = np.random.default_rng(11)
        sources = np.sort(
            rng.choice(graph.num_nodes, min(num_sources, graph.num_nodes), replace=False)
        ).astype(np.int64)
        runs = {}
        for direction in DIRECTIONS:
            with forced_direction(direction):
                runs[direction] = kernels.frontier_expansion(
                    graph.indptr, graph.indices, sources, degrees=graph.degrees
                )
        push_dist, push_owner, push_levels = runs["push"]
        for direction in ("pull", "auto"):
            dist, owner, levels = runs[direction]
            assert np.array_equal(push_dist, dist), (name, direction)
            assert np.array_equal(push_owner, owner), (name, direction)
            assert levels == push_levels, (name, direction)

    def test_empty_sources(self):
        graph = mesh_graph(4, 4)
        empty = np.zeros(0, dtype=np.int64)
        for direction in DIRECTIONS:
            with forced_direction(direction):
                dist, owner, levels = kernels.frontier_expansion(graph.indptr, graph.indices, empty)
            assert (dist == -1).all() and (owner == -1).all() and levels == 0

    def test_single_node_graph(self):
        graph = CSRGraph.empty(1)
        for direction in DIRECTIONS:
            with forced_direction(direction):
                dist, owner, levels = kernels.frontier_expansion(
                    graph.indptr, graph.indices, np.asarray([0], dtype=np.int64)
                )
            assert dist.tolist() == [0] and owner.tolist() == [0] and levels == 0


# ---------------------------------------------------------------------- #
# Pair-id multi-source BFS vs per-source frontier expansion
# ---------------------------------------------------------------------- #
class TestMsbfs:
    @pytest.mark.parametrize("batch", [1, 3, 64, 130, 200])
    def test_levels_match_per_source_reference(self, batch):
        graph = rmat_graph(9, 6, seed=5)
        rng = np.random.default_rng(batch)
        sources = rng.integers(0, graph.num_nodes, batch).astype(np.int64)
        levels = kernels.msbfs_levels(
            graph.indptr, graph.indices, sources, degrees=graph.degrees
        )
        assert levels.shape == (batch, graph.num_nodes)
        for row, source in enumerate(sources):
            dist, _, _ = kernels.frontier_expansion(
                graph.indptr, graph.indices, np.asarray([source], dtype=np.int64)
            )
            assert np.array_equal(levels[row], dist), f"row {row} source {source}"

    def test_duplicate_sources_share_rows(self):
        graph = mesh_graph(7, 7)
        sources = np.asarray([4, 4, 9], dtype=np.int64)
        levels = kernels.msbfs_levels(graph.indptr, graph.indices, sources)
        assert np.array_equal(levels[0], levels[1])

    def test_disconnected_rows_keep_minus_one(self):
        graph = disjoint_union([path_graph(5), path_graph(4)])
        levels = kernels.msbfs_levels(
            graph.indptr, graph.indices, np.asarray([0, 5], dtype=np.int64)
        )
        assert (levels[0, 5:] == -1).all() and (levels[0, :5] >= 0).all()
        assert (levels[1, :5] == -1).all() and (levels[1, 5:] >= 0).all()

    def test_empty_sources(self):
        graph = mesh_graph(3, 3)
        levels = kernels.msbfs_levels(
            graph.indptr, graph.indices, np.zeros(0, dtype=np.int64)
        )
        assert levels.shape == (0, graph.num_nodes)

    @pytest.mark.parametrize("budget", [1, 7, 1 << 16])
    def test_quotient_apsp_tiles_match_per_source_bfs(self, budget, monkeypatch):
        # Hop tiles hold budget // arcs rows: one row (the single-source
        # BFS), or pair-id tiles with a ragged last one (on the one-edge
        # graph, 3 rows at budget 7).
        monkeypatch.setattr(kernels, "_TILE_ARCS", budget)
        for quotient in (
            disjoint_union([rmat_graph(8, 6, seed=2), star_graph(10)]),
            CSRGraph.from_edges([(0, 1)], num_nodes=7),
        ):
            matrix = quotient_apsp(quotient)
            for source in range(quotient.num_nodes):
                dist, _, _ = kernels.frontier_expansion(
                    quotient.indptr, quotient.indices, np.asarray([source], dtype=np.int64)
                )
                expected = dist.astype(np.float64)
                expected[dist < 0] = np.inf
                assert np.array_equal(matrix[source], expected), f"row {source}"

    @pytest.mark.parametrize("budget", [1, 16, 1 << 16])
    def test_weighted_quotient_apsp_tiles_match_per_source(self, budget, monkeypatch):
        # Weighted tiles hold budget // n rows, whatever the arc count: one
        # row, ragged tiles (2 + 2 + 2 + 1 rows on 7 nodes at budget 16), or
        # one tile of every row.
        monkeypatch.setattr(kernels, "_TILE_ARCS", budget)
        tiles = []
        rows = kernels.distance_rows

        def recording_rows(indptr, indices, weights, sources, **kwargs):
            tiles.append(sources.size)
            return rows(indptr, indices, weights, sources, **kwargs)

        monkeypatch.setattr(kernels, "distance_rows", recording_rows)
        quotient = CSRGraph.from_edges(
            [(0, 1), (1, 2), (2, 3), (4, 5)], num_nodes=7, weights=[0.5, 1 / 3, 2.25, 0.1]
        )
        matrix = quotient_apsp(quotient)
        tile = kernels.row_tile(quotient.num_nodes)
        assert tiles == [min(tile, 7 - lo) for lo in range(0, 7, tile)]
        for source in range(quotient.num_nodes):
            expected, _ = kernels.delta_stepping(
                quotient.indptr, quotient.indices, quotient.weights, np.asarray([source], dtype=np.int64)
            )
            assert np.array_equal(matrix[source], expected), f"row {source}"

    def test_isolated_sources(self):
        graph = CSRGraph.from_edges([(0, 1)], num_nodes=4)
        sources = np.asarray([2, 0, 3, 3], dtype=np.int64)
        levels = kernels.msbfs_levels(graph.indptr, graph.indices, sources)
        assert levels.tolist() == [[-1, -1, 0, -1], [0, 1, -1, -1], [-1, -1, -1, 0], [-1, -1, -1, 0]]
        assert levels.max(axis=1).tolist() == eccentricities_loop(graph.indptr, graph.indices, sources).tolist()
        single = CSRGraph.empty(1)
        assert kernels.msbfs_levels(single.indptr, single.indices, np.zeros(2, dtype=np.int64)).tolist() == [[0], [0]]

    def test_quotient_apsp_matches_per_source_bfs(self):
        graph = mesh_graph(10, 10)
        quotient = build_quotient_graph(graph, cluster(graph, 3, seed=4))
        matrix = quotient_apsp(quotient)
        for cluster_id in range(quotient.num_nodes):
            result = multi_source_bfs(quotient, [cluster_id])
            expected = result.distances.astype(np.float64)
            expected[result.distances < 0] = np.inf
            assert np.array_equal(matrix[cluster_id], expected)


# ---------------------------------------------------------------------- #
# mmap-loaded snapshots run the same kernels bit-identically
# ---------------------------------------------------------------------- #
class TestMmapBitIdentity:
    @pytest.fixture
    def pair(self, tmp_path):
        graph = rmat_graph(9, 6, seed=8)
        path = save_snapshot(graph, tmp_path / "g.snap")
        mapped = load_snapshot(path, mmap=True)
        assert mapped.mode == "mmap"
        return graph, mapped

    @pytest.mark.parametrize("direction", ["push", "pull", "auto"])
    def test_frontier_expansion(self, pair, direction):
        graph, mapped = pair
        sources = np.asarray([0, 7], dtype=np.int64)
        with forced_direction(direction):
            expected = kernels.frontier_expansion(
                graph.indptr, graph.indices, sources, degrees=graph.degrees
            )
            got = kernels.frontier_expansion(
                mapped.indptr, mapped.indices, sources, degrees=mapped.degrees
            )
        assert np.array_equal(expected[0], got[0])
        assert np.array_equal(expected[1], got[1])
        assert expected[2] == got[2]

    def test_msbfs_levels(self, pair):
        graph, mapped = pair
        sources = np.arange(0, graph.num_nodes, 3, dtype=np.int64)
        assert np.array_equal(
            kernels.msbfs_levels(graph.indptr, graph.indices, sources),
            kernels.msbfs_levels(mapped.indptr, mapped.indices, sources),
        )

    def test_engine_over_mmap_graph(self, pair):
        graph, mapped = pair
        results = {}
        for label, g in (("memory", graph), ("mmap", mapped)):
            results[label] = grow_from(g, [0, 11, 23])
        assert np.array_equal(results["memory"].assignment, results["mmap"].assignment)
        assert np.array_equal(results["memory"].distance, results["mmap"].distance)


# ---------------------------------------------------------------------- #
# Cached degrees property
# ---------------------------------------------------------------------- #
class TestDegreesCache:
    def test_cached_and_readonly(self):
        graph = mesh_graph(6, 7)
        degrees = graph.degrees
        assert degrees is graph.degrees  # same object on every access
        assert not degrees.flags.writeable
        assert np.array_equal(degrees, np.diff(graph.indptr))
        assert graph.degree() is degrees

    def test_mmap_mode(self, tmp_path):
        graph = mesh_graph(4, 5)
        path = save_snapshot(graph, tmp_path / "g.snap")
        mapped = load_snapshot(path, mmap=True)
        degrees = mapped.degrees
        assert degrees is mapped.degrees
        assert np.array_equal(degrees, np.diff(graph.indptr))

    def test_weighted_graph(self):
        graph = mesh_graph(4, 4, weights="uniform", seed=1)
        assert graph.is_weighted
        assert graph.degrees is graph.degrees
        assert np.array_equal(graph.degrees, np.diff(graph.indptr))


# ---------------------------------------------------------------------- #
# GrowthEngine direction forcing: full runs and MR accounting
# ---------------------------------------------------------------------- #
class TestEngineDirection:
    def assert_runs_identical(self, reference, other):
        """Two engines or clusterings with identical state and step logs."""
        assert np.array_equal(reference.assignment, other.assignment)
        assert np.array_equal(reference.distance, other.distance)
        assert len(reference.step_log) == len(other.step_log)
        for ref_step, got_step in zip(reference.step_log, other.step_log):
            assert ref_step.frontier_size == got_step.frontier_size
            assert ref_step.arcs_scanned == got_step.arcs_scanned
            assert ref_step.newly_covered == got_step.newly_covered

    @pytest.mark.parametrize("name", ["rmat", "mesh", "disconnected", "star"])
    def test_forced_directions_full_run(self, name):
        graph = graph_zoo()[name]
        runs = {}
        for direction in DIRECTIONS:
            with forced_direction(direction):
                runs[direction] = cluster(graph, 2, seed=7)
        self.assert_runs_identical(runs["push"], runs["pull"])
        self.assert_runs_identical(runs["push"], runs["auto"])

    def test_incremental_centers_after_growth(self):
        # Centers added after growth has started must feed the optimizer's
        # unvisited-arcs accounting.
        graph = mesh_graph(11, 11)
        runs = {}
        for direction in ("push", "pull"):
            with forced_direction(direction):
                engine = GrowthEngine(graph)
                engine.add_centers([0])
                engine.grow_steps(2)
                engine.add_centers([graph.num_nodes - 1, 60])
                engine.grow_to_exhaustion()
            runs[direction] = engine
        self.assert_runs_identical(runs["push"], runs["pull"])

    def test_weighted_engine_ignores_pull(self):
        # Min-weight claims have no pull path; forcing pull must be a no-op,
        # not an error, and results must match the default engine.
        graph = mesh_graph(6, 6, weights="uniform", seed=2)
        baseline = grow_from(graph, [0, 35])
        with forced_direction("pull"):
            forced = grow_from(graph, [0, 35])
        assert forced.weighted_distance is not None
        self.assert_runs_identical(baseline, forced)


# ---------------------------------------------------------------------- #
# Kernel observability counters
# ---------------------------------------------------------------------- #
class TestKernelStats:
    def test_disabled_by_default_snapshot_is_zeroed(self, stats_guard):
        kernels.enable_kernel_stats(False)
        assert not kernels.kernel_stats_enabled()
        snapshot = kernels.kernel_stats_snapshot()
        assert set(snapshot) and all(value == 0 for value in snapshot.values())

    def test_direction_counters(self, stats_guard):
        kernels.enable_kernel_stats()
        graph = rmat_graph(10, 8, seed=3)
        kernels.frontier_expansion(
            graph.indptr,
            graph.indices,
            np.asarray([0], dtype=np.int64),
            degrees=graph.degrees,
        )
        stats = kernels.kernel_stats_snapshot()
        assert stats["levels"] == stats["push_levels"] + stats["pull_levels"]
        # R-MAT at this density is exactly the pull regime: the default
        # heuristic must run both directions, and every level is counted.
        assert stats["pull_levels"] > 0 and stats["push_levels"] > 0
        assert stats["direction_switches"] >= 1
        assert stats["edges_scanned"] == (
            stats["edges_scanned_push"] + stats["edges_scanned_pull"]
        )
        assert stats["claims_scatter"] > 0

    @pytest.mark.parametrize("direction", ["push", "pull"])
    def test_forced_direction_pins_every_level(self, stats_guard, direction):
        # The reference's threshold patch must really force the direction:
        # on R-MAT the default heuristic mixes both (test above).
        graph = rmat_graph(10, 8, seed=3)
        kernels.enable_kernel_stats()
        with forced_direction(direction):
            kernels.frontier_expansion(
                graph.indptr, graph.indices, np.asarray([0], dtype=np.int64), degrees=graph.degrees
            )
            cluster(graph, 2, seed=7)
        stats = kernels.kernel_stats_snapshot()
        other = "pull" if direction == "push" else "push"
        assert stats[f"{direction}_levels"] > 0
        assert stats[f"{other}_levels"] == 0

    def test_msbfs_counters_and_reset(self, stats_guard):
        kernels.enable_kernel_stats()
        graph = mesh_graph(8, 8)
        kernels.msbfs_levels(
            graph.indptr,
            graph.indices,
            np.arange(graph.num_nodes, dtype=np.int64),
        )
        stats = kernels.kernel_stats_snapshot()
        assert stats["msbfs_sweeps"] == 1
        assert stats["msbfs_levels"] > 0
        # Every (source, node) pair is reached, and each scans its node's arcs once.
        assert stats["msbfs_edges_scanned"] == graph.num_nodes * graph.indices.size
        kernels.enable_kernel_stats(True)  # restarts from zero
        assert all(value == 0 for value in kernels.kernel_stats_snapshot().values())
