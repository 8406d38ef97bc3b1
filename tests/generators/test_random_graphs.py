"""Unit tests for Erdős–Rényi and random-regular generators."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.generators.random_graphs import erdos_renyi_graph, gnm_graph, random_regular_graph
from repro.graph.components import is_connected


class TestErdosRenyi:
    def test_edge_count_near_expectation(self):
        n, p = 300, 0.05
        g = erdos_renyi_graph(n, p, seed=3)
        expected = p * n * (n - 1) / 2
        assert 0.8 * expected <= g.num_edges <= 1.2 * expected

    def test_zero_probability(self):
        assert erdos_renyi_graph(50, 0.0, seed=1).num_edges == 0

    def test_probability_one_dense(self):
        g = erdos_renyi_graph(12, 1.0, seed=1)
        assert g.num_edges >= 0.8 * 12 * 11 / 2

    def test_deterministic_with_seed(self):
        a = erdos_renyi_graph(80, 0.1, seed=42)
        b = erdos_renyi_graph(80, 0.1, seed=42)
        assert a == b

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5)
        with pytest.raises(ValueError):
            erdos_renyi_graph(-1, 0.5)

    def test_empty(self):
        assert erdos_renyi_graph(0, 0.5, seed=1).num_nodes == 0


class TestGnm:
    def test_exact_edge_count(self):
        g = gnm_graph(60, 200, seed=7)
        assert g.num_edges == 200
        assert g.num_nodes == 60

    def test_zero_edges(self):
        assert gnm_graph(10, 0, seed=1).num_edges == 0

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            gnm_graph(4, 100)

    def test_deterministic(self):
        assert gnm_graph(30, 50, seed=5) == gnm_graph(30, 50, seed=5)


#: Edge digests of ``random_regular_graph(4032, 4, seed=s)`` for seeds 1-20,
#: recorded when each draw was checked for repeated edges with
#: ``np.unique(np.sort(pairs, axis=1), axis=0)``: the draws and every accept
#: or fallback decision must not depend on how simplicity is checked.
REGULAR_DIGESTS = {
    1: "e50beb40873b258e",
    2: "9cc1bafa1352a8e7",
    3: "0ff7b6a7e2527eb8",
    4: "fc046af03fad0c57",
    5: "e4beef78afd4cd9f",
    6: "640f0a4122a6cd56",
    7: "51c6887f6234d192",
    8: "116d13f4a471c7b8",
    9: "4137ab08538934a0",
    10: "c2e7ca6d48f87592",
    11: "c52202cd7cfe94b0",
    12: "ce11f04d5f1ce5e4",
    13: "2db97c57e0342b18",
    14: "b079d4b64c8ebb8c",
    15: "9446e368fd2e647b",
    16: "237d3da7266d3df4",
    17: "3c742fa883099138",
    18: "e76a1500b24a64a3",
    19: "b62bc644f9be2ef5",
    20: "8d706cd81f736a8c",
}


class TestRandomRegular:
    def test_draws_and_fallbacks_pinned(self):
        digests, fallbacks = {}, []
        for seed in REGULAR_DIGESTS:
            g = random_regular_graph(4032, 4, seed=seed)
            edges = np.concatenate((g.indptr, g.indices)).astype(np.int64)
            digests[seed] = hashlib.sha256(edges.tobytes()).hexdigest()[:16]
            if g.degree().min() < 4:
                fallbacks.append(seed)
        assert digests == REGULAR_DIGESTS
        # A degree-4 draw is simple with probability about 2.4%, so these
        # seeds use all 50 draws and return the non-regular fallback.
        assert fallbacks == [4, 6, 7, 8, 9, 12, 13, 15, 17]

    @pytest.mark.parametrize("n,d", [(20, 3), (50, 4), (64, 6)])
    def test_regularity(self, n, d):
        g = random_regular_graph(n, d, seed=9)
        degrees = g.degree()
        # The configuration model retries until simple; degrees should be exact.
        assert degrees.max() <= d
        assert degrees.mean() >= d - 0.5

    def test_expander_is_connected(self):
        g = random_regular_graph(200, 4, seed=11)
        assert is_connected(g)

    def test_degree_zero(self):
        assert random_regular_graph(10, 0, seed=1).num_edges == 0

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            random_regular_graph(5, 3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(ValueError):
            random_regular_graph(4, 4)
