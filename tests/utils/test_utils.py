"""Unit tests for the shared utilities (rng, timer, validation, logging)."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.core.growth_engine import GrowthEngine
from repro.core.kcenter import evaluate_centers
from repro.generators import mesh_graph
from repro.graph.traversal import bfs_distances, dijkstra, multi_source_bfs
from repro.serving import GraphService
from repro.utils.logging import enable_verbose, get_logger
from repro.utils.rng import as_rng, random_subset_mask, spawn_rngs
from repro.utils.validation import check_node_index


class TestRNG:
    def test_as_rng_from_int_reproducible(self):
        assert as_rng(7).integers(0, 100, 5).tolist() == as_rng(7).integers(0, 100, 5).tolist()

    def test_as_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_as_rng_seed_sequence(self):
        gen = as_rng(np.random.SeedSequence(4))
        assert isinstance(gen, np.random.Generator)

    def test_as_rng_none(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_as_rng_invalid_type(self):
        with pytest.raises(TypeError):
            as_rng("not a seed")

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(3, 2)
        assert a.integers(0, 1000, 10).tolist() != b.integers(0, 1000, 10).tolist()

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(1), 3)
        assert len(children) == 3

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_random_subset_mask_extremes(self):
        rng = np.random.default_rng(2)
        assert random_subset_mask(10, 0.0, rng).sum() == 0
        assert random_subset_mask(10, 1.0, rng).sum() == 10
        assert random_subset_mask(10, 5.0, rng).sum() == 10  # clamped
        assert random_subset_mask(0, 0.5, rng).size == 0

    def test_random_subset_mask_expectation(self):
        rng = np.random.default_rng(3)
        mask = random_subset_mask(20_000, 0.25, rng)
        assert 0.2 <= mask.mean() <= 0.3

    def test_random_subset_mask_negative_size(self):
        with pytest.raises(ValueError):
            random_subset_mask(-1, 0.5, np.random.default_rng(0))


class TestValidation:
    def test_check_node_index(self):
        assert check_node_index(np.int64(3), 10) == 3
        with pytest.raises(IndexError):
            check_node_index(10, 10)
        with pytest.raises(IndexError):
            check_node_index(-1, 10)


    def test_check_node_index_rejects_non_integers(self):
        assert check_node_index(3, 10) == 3 and check_node_index(np.int32(3), 10) == 3
        for bad in (2.7, np.float64(2.0), "3", True, np.True_, None):
            with pytest.raises(TypeError, match="u must be an integer node id"):
                check_node_index(bad, 10, "u")

    def test_scalar_node_ids_are_checked_not_truncated(self):
        # Every scalar entry point used to run int(node): 2.7 answered for
        # node 2 and "3" for node 3.
        graph = mesh_graph(5, 5)
        oracle = GraphService.build(graph, seed=0).oracle
        calls = [
            lambda: graph.neighbors(2.7),
            lambda: graph.neighbors("3"),
            lambda: graph.degree(1.0),
            lambda: graph.has_edge(0.5, 1.5),
            lambda: graph.edge_weight(0, 1.0),
            lambda: bfs_distances(graph, 1.9),
            lambda: bfs_distances(graph, True),
            lambda: dijkstra(graph, "0"),
            lambda: oracle.query(2.7, 0),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="must be an integer node id"):
                call()
        assert graph.neighbors(np.int64(2)).tolist() == graph.neighbors(2).tolist()
        assert oracle.query(np.int64(2), 0) == oracle.query(2, 0)

    def test_batch_node_ids_are_checked_not_truncated(self):
        # Five batch entry points converted ids with np.asarray(list(x),
        # dtype=np.int64) or not at all: [2.7] ran on node 2, and
        # neighbor_blocks([-9]) returned node 1's arcs labelled with source -9.
        graph = mesh_graph(3, 3)
        entries = {
            "nodes": [lambda b: graph.neighbor_blocks(np.asarray(b)), graph.subgraph],
            "centers": [
                lambda b: evaluate_centers(graph, b),
                lambda b: GrowthEngine(graph).add_centers(np.asarray(b)),
            ],
            "sources": [lambda b: multi_source_bfs(graph, b)],
        }
        for name, calls in entries.items():
            for call in calls:
                for bad in ([2.7], np.array([2.0]), [True], [0, 0.5]):
                    with pytest.raises(TypeError, match=f"{name} must be an integer array"):
                        call(bad)
                for bad in ([-9], [-1], [9], [0, 12]):
                    with pytest.raises(IndexError, match=f"{name} {bad[-1]} out of range"):
                        call(bad)

    def test_batch_node_ids_accept_sequences_and_arrays(self):
        graph = mesh_graph(3, 3)
        src, dst = graph.neighbor_blocks([4])
        assert src.tolist() == [4] * 4 and dst.tolist() == [1, 3, 5, 7]
        forms = ([0, 8], (0, 8), range(0, 9, 8), np.array([8, 0], dtype=np.int32))
        for form in forms:
            assert graph.subgraph(form)[1].tolist() == [0, 8]
            assert evaluate_centers(graph, form).radius == 2
            assert GrowthEngine(graph).add_centers(form).tolist() == [0, 8]
            assert multi_source_bfs(graph, form).distances.max() == 2


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("core").name == "repro.core"
        assert get_logger("repro.graph").name == "repro.graph"

    def test_enable_verbose_idempotent(self):
        enable_verbose()
        enable_verbose()
        logger = logging.getLogger("repro")
        handlers = [h for h in logger.handlers if isinstance(h, logging.StreamHandler)]
        assert len(handlers) == 1
