"""The one edge-multiset fold, pinned to the frozen ``from_edges`` fold.

``CSRGraph.from_edges`` and streamed ingestion both fold through
:func:`repro.graph.kernels.min_per_key`, so comparing the two builds with
each other would compare the fold with itself.  Both are checked against
``kernel_reference.fold_undirected_edges``, the fold ``from_edges`` ran
before, and ``min_per_key`` against a dictionary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import kernels
from repro.graph.csr import CSRGraph
from repro.graph.ingest import from_edge_chunks

from kernel_reference import fold_undirected_edges  # rootless test layout: pytest puts this dir on sys.path

#: Few distinct weights, so repeated edges tie about as often as they differ.
WEIGHTS = (0.5, 1 / 3, 1.0, 2.0, 7.25)

#: Value strategies for ``min_per_key``: one per route through it.
VALUE_KINDS = (
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-(1 << 40), max_value=1 << 40),
    st.sampled_from(WEIGHTS),
)


@st.composite
def edge_multisets(draw):
    """``(edges, weights, num_nodes, cuts)``: a messy edge multiset and a chunking.

    Small node ranges make self-loops and repeats common; a drawn subset is
    repeated in the other orientation, every edge draws its weight from
    :data:`WEIGHTS`, and an isolated tail of up to three nodes follows the
    largest endpoint.  The list may be empty.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=40))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs += [(v, u) for (u, v), flip in zip(pairs, flips) if flip]
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(
        draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(edges), max_size=len(edges))), dtype=np.float64
    )
    tail = draw(st.integers(min_value=0, max_value=3))
    num_nodes = (int(edges.max()) + 1 if edges.size else 0) + tail
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(edges)), max_size=4)))
    return edges, weights, num_nodes, cuts


def assert_matches_reference(graph, edges, weights, num_nodes):
    indptr, indices, folded = fold_undirected_edges(edges, weights, num_nodes)
    assert np.array_equal(graph.indptr, indptr)
    assert np.array_equal(graph.indices, indices)
    if weights is None:
        assert graph.weights is None
    else:
        assert np.array_equal(graph.weights, folded)


@given(edge_multisets(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_builds_match_the_frozen_fold(case, weighted):
    edges, weights, num_nodes, cuts = case
    weights = weights if weighted else None
    graph = CSRGraph.from_edges(edges, num_nodes=num_nodes, weights=weights)
    assert_matches_reference(graph, edges, weights, num_nodes)
    # ``np.split`` always yields a chunk, so an empty weighted list stays weighted.
    parts = np.split(np.arange(len(edges)), cuts)

    def chunks():
        return ((edges[part], None if weights is None else weights[part]) for part in parts)

    assert_matches_reference(from_edge_chunks(chunks, num_nodes=num_nodes), edges, weights, num_nodes)


def dict_min(keys, values):
    """Sorted distinct keys and the minimum value per key, one dictionary pass."""
    best = {}
    for key, value in zip(keys.tolist(), values.tolist()):
        best[key] = min(best.get(key, value), value)
    ordered = sorted(best)
    return np.asarray(ordered, dtype=np.int64), np.asarray([best[key] for key in ordered])


class TestMinPerKey:
    def test_empty_keys(self):
        keys = np.zeros(0, dtype=np.int64)
        got, values = kernels.min_per_key(keys, None)
        assert got.size == 0 and values is None
        got, values = kernels.min_per_key(keys, np.zeros(0))
        assert got.size == 0 and values.size == 0

    def test_without_values(self):
        keys = np.asarray([5, 1, 5, 3, 1, 1 << 62], dtype=np.int64)
        got, values = kernels.min_per_key(keys, None)
        assert got.tolist() == [1, 3, 5, 1 << 62] and values is None

    @pytest.mark.parametrize(
        "high_key, values",
        [
            (1 << 20, [3, 0, 7, 7, 1, 2]),  # packs into one sorted int64
            (1 << 62, [3, 0, 7, 7, 1, 2]),  # key * 8 would overflow: argsort route
            (1 << 20, [3, -4, 7, 7, 1, 2]),  # negative values do not pack
            (1 << 62, [0.5, 0.25, 1 / 3, 1 / 3, 9.0, 0.5]),
        ],
    )
    def test_minimum_per_key(self, high_key, values):
        keys = np.asarray([4, high_key, 4, 9, high_key, 4], dtype=np.int64)
        values = np.asarray(values)
        got_keys, got_values = kernels.min_per_key(keys, values)
        want_keys, want_values = dict_min(keys, values)
        assert np.array_equal(got_keys, want_keys)
        assert np.array_equal(got_values, want_values)
        assert got_values.dtype == values.dtype

    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 63) - 1), min_size=1, max_size=30),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dictionary(self, key_pool, data):
        size = data.draw(st.integers(min_value=1, max_value=60))
        keys = np.asarray(data.draw(st.lists(st.sampled_from(key_pool), min_size=size, max_size=size)), dtype=np.int64)
        # Small non-negative integers pack; wide signed ones and floats do not.
        value = data.draw(st.sampled_from(VALUE_KINDS))
        values = np.asarray(data.draw(st.lists(value, min_size=size, max_size=size)))
        got_keys, got_values = kernels.min_per_key(keys, values)
        want_keys, want_values = dict_min(keys, values)
        assert np.array_equal(got_keys, want_keys)
        assert np.array_equal(got_values, want_values)
