"""Unit tests for quotient-graph construction and quotient diameters."""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import oracle, pipeline
from repro.core import quotient as quotient_module
from repro.core.cluster import cluster
from repro.core.oracle import build_distance_oracle
from repro.core.pipeline import DecompositionPipeline
from repro.core.quotient import build_quotient_graph, quotient_apsp, quotient_diameter
from repro.core.clustering import Clustering
from repro.generators import barabasi_albert_graph, mesh_graph, path_graph, road_network_graph
from repro.generators.rmat import rmat_graph
from repro.graph import kernels
from repro.graph.components import is_connected, largest_component
from repro.graph.csr import CSRGraph
from repro.graph.diameter_exact import bounded_diameter
from repro.graph.snapshot import load_snapshot, save_snapshot

from quotient_reference import (  # rootless test layout: pytest puts this dir on sys.path
    reference_quotient,
    reference_weighted_quotient,
)
from singletons import singleton_clustering  # rootless test layout: pytest puts this dir on sys.path

#: Float weights whose sums round, mixed with magnitudes far apart.
FLOAT_WEIGHTS = (0.1, 0.2, 0.3, 1 / 3, 1e-3, 1e3)
#: ``kernels._TILE_ARCS`` budgets: one row per tile, a few rows, the default.
TILE_BUDGETS = (1, 64, 1 << 16)


def scipy_apsp(quotient: CSRGraph) -> np.ndarray:
    """Reference APSP through scipy.sparse.csgraph (not a dependency of src/)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = quotient.num_nodes
    data = (
        quotient.weights
        if quotient.weights is not None
        else np.ones(quotient.indices.size, dtype=np.float64)
    )
    matrix = csr_matrix((data, quotient.indices, quotient.indptr), shape=(n, n))
    return shortest_path(
        matrix, method="D", directed=False, unweighted=not quotient.is_weighted
    )


def per_source_apsp(quotient: CSRGraph) -> np.ndarray:
    """Reference APSP: one single-source delta_stepping per cluster.

    The unweighted flavour runs on unit weights, whose distances are hops.
    """
    n = quotient.num_nodes
    indptr, indices = quotient.indptr, quotient.indices
    weights = quotient.weights if quotient.is_weighted else np.ones(indices.size)
    matrix = np.empty((n, n))
    for source in range(n):
        matrix[source], _ = kernels.delta_stepping(
            indptr, indices, weights, np.asarray([source], dtype=np.int64)
        )
    return matrix


def reference_diameter(matrix: np.ndarray) -> float:
    if not np.isfinite(matrix).all():
        raise ValueError("quotient graph is disconnected; diameter is infinite")
    return float(matrix.max())


def float_weighted_quotient() -> CSRGraph:
    """A quotient of the weighted decomposition: non-integer arc weights."""
    graph = road_network_graph(30, 30, seed=3, weights="uniform")
    pipe = DecompositionPipeline(graph, method="weighted", target_clusters=100, seed=0)
    quotient = pipe.quotient(weighted=True)
    assert np.any(quotient.weights != np.round(quotient.weights))
    return quotient


@st.composite
def random_quotients(draw, kind: str) -> CSRGraph:
    """A random connected graph as a quotient: a random tree plus extra edges.

    ``kind`` picks the arc weights: ``"hop"`` (none), ``"int"`` (1 to 9) or
    ``"float"`` (from :data:`FLOAT_WEIGHTS`, so path sums round).
    """
    n = draw(st.integers(min_value=1, max_value=40))
    edges = [(v, draw(st.integers(min_value=0, max_value=v - 1))) for v in range(1, n)]
    node = st.integers(min_value=0, max_value=n - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=2 * n))
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if kind == "hop":
        return CSRGraph.from_edges(edges, num_nodes=n)
    values = st.integers(min_value=1, max_value=9) if kind == "int" else st.sampled_from(FLOAT_WEIGHTS)
    weights = draw(st.lists(values, min_size=len(edges), max_size=len(edges)))
    return CSRGraph.from_edges(edges, num_nodes=n, weights=np.asarray(weights, dtype=np.float64))


def shaped_quotient(shape: str, kind: str) -> CSRGraph:
    """k = 1, k = 2, or a 12-node path, star or complete graph."""
    n = {"k1": 1, "k2": 2}.get(shape, 12)
    pairs = {
        "k1": [],
        "k2": [(0, 1)],
        "path": [(v, v + 1) for v in range(n - 1)],
        "star": [(0, v) for v in range(1, n)],
        "complete": [(u, v) for u in range(n) for v in range(u + 1, n)],
    }[shape]
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if kind == "hop":
        return CSRGraph.from_edges(edges, num_nodes=n)
    if kind == "int":
        weights = 1.0 + np.arange(len(edges)) % 5
    else:
        weights = np.resize(np.asarray(FLOAT_WEIGHTS), len(edges))
    return CSRGraph.from_edges(edges, num_nodes=n, weights=weights)


def weighted_empty(n: int) -> CSRGraph:
    """``n`` isolated clusters with an (empty) weights array."""
    return CSRGraph(indptr=np.zeros(n + 1, dtype=np.int64), indices=np.zeros(0, dtype=np.int64), weights=np.zeros(0))


def assert_same_quotient(got: CSRGraph, expected: CSRGraph) -> None:
    assert type(got) is CSRGraph
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    if expected.weights is None:
        assert got.weights is None
    else:
        assert got.weights.dtype == np.float64
        assert np.array_equal(got.weights, expected.weights)


def builder_case(name: str):
    """``(graph, clustering)`` pairs: hop growth on three graph families, and
    the weighted decomposition of a float-weighted road network."""
    if name == "ba":
        graph = barabasi_albert_graph(300, 3, seed=1)
        return graph, cluster(graph, 4, seed=1)
    if name == "road":
        graph, _ = largest_component(road_network_graph(30, 30, seed=2))
        return graph, cluster(graph, 8, seed=2)
    if name == "rmat":
        graph = rmat_graph(10, 8, seed=3)  # isolated nodes: singleton clusters
        return graph, cluster(graph, 8, seed=3)
    graph, _ = largest_component(road_network_graph(25, 25, seed=4, weights="uniform"))
    return graph, cluster(graph, 6, seed=4)


@st.composite
def builder_inputs(draw):
    """A random graph of 0 to 60 nodes (isolated nodes, several components,
    unweighted or float-weighted) and a clustering of it: ``cluster``'s,
    singletons, or a hand-made one whose growth distances can reach 2**40."""
    n = draw(st.integers(min_value=0, max_value=60))
    node = st.integers(min_value=0, max_value=max(n - 1, 0))
    edges = np.asarray(draw(st.lists(st.tuples(node, node), max_size=3 * n)), dtype=np.int64).reshape(-1, 2)
    weights = None
    if draw(st.booleans()):
        weights = np.asarray(draw(st.lists(st.sampled_from(FLOAT_WEIGHTS), min_size=len(edges), max_size=len(edges))))
    graph = CSRGraph.from_edges(edges, num_nodes=n, weights=weights)
    kind = draw(st.sampled_from(["cluster", "singletons", "hand-made"])) if n else "singletons"
    if kind == "cluster":
        return graph, cluster(graph, draw(st.integers(min_value=1, max_value=4)), seed=draw(st.integers(0, 3)))
    if kind == "singletons":
        return graph, singleton_clustering(n)
    k = draw(st.integers(min_value=1, max_value=n))
    assignment = np.asarray(draw(st.permutations(np.arange(n) % k)), dtype=np.int64)
    centers = np.asarray([np.flatnonzero(assignment == c)[0] for c in range(k)], dtype=np.int64)
    top = draw(st.sampled_from([1, 7, 1 << 40]))
    distance = np.asarray(draw(st.lists(st.integers(1, top), min_size=n, max_size=n)), dtype=np.int64)
    distance[centers] = 0
    weighted_distance = None
    if weights is not None and draw(st.booleans()):
        weighted_distance = np.asarray(draw(st.lists(st.sampled_from(FLOAT_WEIGHTS), min_size=n, max_size=n)))
        weighted_distance[centers] = 0.0
    return graph, Clustering(
        num_nodes=n, assignment=assignment, centers=centers, distance=distance, weighted_distance=weighted_distance
    )


@pytest.fixture
def mesh_clustering(mesh20):
    return cluster(mesh20, 4, seed=0)


class TestBuildQuotient:
    def test_node_count_equals_clusters(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering)
        assert q.num_nodes == mesh_clustering.num_clusters
        assert not q.is_weighted

    def test_connected_quotient_of_connected_graph(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering)
        assert is_connected(q)

    def test_edges_correspond_to_crossing_edges(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering)
        assignment = mesh_clustering.assignment
        expected_pairs = set()
        for u, v in mesh20.edges():
            cu, cv = int(assignment[u]), int(assignment[v])
            if cu != cv:
                expected_pairs.add((min(cu, cv), max(cu, cv)))
        got_pairs = set((min(int(a), int(b)), max(int(a), int(b))) for a, b in q.edges())
        assert got_pairs == expected_pairs

    def test_weighted_quotient_weights_positive(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering, weighted=True)
        assert q.is_weighted
        assert np.all(q.weights >= 1)

    def test_weight_definition(self, mesh20, mesh_clustering):
        """Weight = min over crossing edges of dist(a, c_A) + 1 + dist(b, c_B)."""
        q = build_quotient_graph(mesh20, mesh_clustering, weighted=True)
        assignment = mesh_clustering.assignment
        dist = mesh_clustering.distance
        # Recompute one arbitrary quotient edge's weight by brute force.
        a, b = q.edges()[0]
        crossing = []
        for u, v in mesh20.edges():
            cu, cv = int(assignment[u]), int(assignment[v])
            if {cu, cv} == {int(a), int(b)}:
                crossing.append(int(dist[u]) + int(dist[v]) + 1)
        assert q.edge_weight(int(a), int(b)) == min(crossing)

    def test_arc_weight_missing_edge(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering, weighted=True)
        # Find a non-adjacent pair of clusters (exists unless quotient is complete).
        adj = {tuple(sorted(map(int, e))) for e in q.edges()}
        k = q.num_nodes
        missing = None
        for i in range(k):
            for j in range(i + 1, k):
                if (i, j) not in adj:
                    missing = (i, j)
                    break
            if missing:
                break
        if missing is not None:
            with pytest.raises(KeyError):
                q.edge_weight(*missing)

    def test_edge_weight_checks_both_ids(self):
        """A negative id must not wrap around to the last row."""
        graph = mesh_graph(10, 10)
        q = build_quotient_graph(graph, singleton_clustering(graph.num_nodes), weighted=True)
        k = q.num_nodes
        assert k == 100 and q.edge_weight(0, 1) == 1.0 and q.edge_weight(1, 0) == 1.0
        for u, v, bad in ((-2, 98, "u -2"), (k, 0, f"u {k}"), (0, -1, "v -1"), (0, k, f"v {k}")):
            with pytest.raises(IndexError, match=f"{bad} out of range"):
                q.edge_weight(u, v)
        with pytest.raises(KeyError):
            q.edge_weight(0, 99)
        hops = q.unweighted()
        assert hops.weights is None and hops.edge_weight(10, 0) == 1.0

    def test_single_cluster_quotient_empty(self, mesh8):
        single = Clustering(
            num_nodes=mesh8.num_nodes,
            assignment=np.zeros(mesh8.num_nodes, dtype=np.int64),
            centers=np.asarray([0], dtype=np.int64),
            distance=np.asarray(
                [int(d) for d in np.maximum(0, np.arange(mesh8.num_nodes) % 3)], dtype=np.int64
            ),
        )
        q = build_quotient_graph(mesh8, single)
        assert q.num_nodes == 1
        assert q.num_edges == 0

    def test_size_mismatch_rejected(self, mesh8, mesh_clustering):
        with pytest.raises(ValueError):
            build_quotient_graph(mesh8, mesh_clustering)


class TestQuotientDiameter:
    """The bounded routine equals the max of both reference matrices."""

    def assert_exact(self, q):
        expected = reference_diameter(per_source_apsp(q))
        assert quotient_diameter(q) == expected
        assert reference_diameter(scipy_apsp(q)) == expected

    def test_unweighted_methods_agree(self, mesh20, mesh_clustering):
        self.assert_exact(build_quotient_graph(mesh20, mesh_clustering))

    def test_weighted_methods_agree(self, mesh20, mesh_clustering):
        self.assert_exact(build_quotient_graph(mesh20, mesh_clustering, weighted=True))

    def test_float_weighted_quotient_exact(self):
        self.assert_exact(float_weighted_quotient())

    def test_singleton_clusters_recover_graph_diameter(self, path10):
        singles = singleton_clustering(path10.num_nodes)
        q = build_quotient_graph(path10, singles)
        assert quotient_diameter(q) == 9

    def test_single_node_quotient(self):
        assert quotient_diameter(CSRGraph.empty(1)) == 0.0
        assert quotient_diameter(weighted_empty(1)) == 0.0

    def test_empty_quotient_rejected(self):
        with pytest.raises(ValueError):
            quotient_diameter(CSRGraph.empty(0))

    def test_disconnected_quotient_rejected(self):
        graph = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        for weights in (None, np.ones(2), np.full(2, 0.1)):
            with pytest.raises(ValueError, match="disconnected"):
                quotient_diameter(CSRGraph(indptr=graph.indptr, indices=graph.indices, weights=weights))
        with pytest.raises(ValueError, match="disconnected"):
            quotient_diameter(weighted_empty(2))

    @pytest.mark.parametrize("kind", ["hop", "int", "float"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_sweep_on_random_graphs(self, kind, data):
        q = data.draw(random_quotients(kind))
        budget = data.draw(st.sampled_from(TILE_BUDGETS))
        expected = reference_diameter(per_source_apsp(q))
        with mock.patch.object(kernels, "_TILE_ARCS", budget):
            assert quotient_diameter(q) == expected

    @pytest.mark.parametrize("budget", TILE_BUDGETS)
    @pytest.mark.parametrize("kind", ["hop", "int", "float"])
    @pytest.mark.parametrize("shape", ["k1", "k2", "path", "star", "complete"])
    def test_matches_full_sweep_on_fixed_shapes(self, shape, kind, budget):
        q = shaped_quotient(shape, kind)
        expected = reference_diameter(per_source_apsp(q))
        with mock.patch.object(kernels, "_TILE_ARCS", budget):
            assert quotient_diameter(q) == expected

    def test_float_rounding_is_covered_by_the_margin(self):
        """Paths whose sums round differently from each end, around a hub.

        Without the rounding margin the bounds drop an end whose reversed
        sum is one ulp above the best row, e.g. the first case below
        (2.0666666666666664 instead of 2.066666666666667); a seeded sweep of
        such shapes failed about once in twenty.
        """
        cases = [([1 / 3, 1.1, 0.2, 1 / 3, 0.1], 3)]
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(3, 12))
            cases.append((rng.choice(FLOAT_WEIGHTS, size=m - 1).tolist(), m // 2))
        for path_weights, hub in cases:
            m = len(path_weights) + 1
            # Two light leaves make the hub the highest-degree node.
            edges = [(v, v + 1) for v in range(m - 1)] + [(hub, m), (hub, m + 1)]
            weights = np.asarray(path_weights + [1e-3, 1e-3])
            q = CSRGraph.from_edges(np.asarray(edges), num_nodes=m + 2, weights=weights)
            with mock.patch.object(kernels, "_TILE_ARCS", 1):
                assert quotient_diameter(q) == reference_diameter(per_source_apsp(q))

    def test_float_weighted_quotient_from_few_rows(self):
        q = float_weighted_quotient()
        with mock.patch.object(kernels, "_TILE_ARCS", 1):
            diameter, rows = bounded_diameter(q.indptr, q.indices, q.weights)
        assert diameter == reference_diameter(per_source_apsp(q))
        assert rows < q.num_nodes // 2

    @pytest.mark.parametrize("weighted", [False, True])
    def test_large_quotient_spans_several_tiles(self, weighted):
        """300 clusters: more rows than one row_tile, in both flavours."""
        big = path_graph(300)
        q = build_quotient_graph(big, singleton_clustering(300), weighted=weighted)
        assert quotient_diameter(q) == 299.0
        disconnected = CSRGraph.from_edges([(0, 1)], num_nodes=300, weights=[1.0] if weighted else None)
        with pytest.raises(ValueError, match="disconnected"):
            quotient_diameter(disconnected)


class TestQuotientApsp:
    """quotient_apsp replaced scipy in the oracle build; pin bit-compat."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_scipy_on_mesh_quotient(self, mesh20, mesh_clustering, weighted):
        q = build_quotient_graph(mesh20, mesh_clustering, weighted=weighted)
        got = quotient_apsp(q)
        assert got.dtype == np.float64
        assert np.array_equal(got, scipy_apsp(q))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_scipy_on_random_graphs(self, seed, weighted):
        graph = barabasi_albert_graph(250, 3, seed=seed)
        clustering = cluster(graph, 4, seed=seed)
        q = build_quotient_graph(graph, clustering, weighted=weighted)
        assert np.array_equal(quotient_apsp(q), scipy_apsp(q))
        assert np.array_equal(quotient_apsp(q), per_source_apsp(q))

    def test_float_weights_match_both_references(self):
        q = float_weighted_quotient()
        matrix = quotient_apsp(q)
        assert np.array_equal(matrix, per_source_apsp(q))
        assert np.array_equal(matrix, scipy_apsp(q))
        # Row a sums a path from a, row b the same path from b: rows cannot
        # be mirrored from columns.
        assert not np.array_equal(matrix, matrix.T)

    def test_symmetric_zero_diagonal(self, mesh20, mesh_clustering):
        q = build_quotient_graph(mesh20, mesh_clustering, weighted=True)
        matrix = quotient_apsp(q)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_disconnected_pairs_are_inf(self):
        q = CSRGraph.from_edges([(0, 1)], num_nodes=3)
        matrix = quotient_apsp(q)
        assert matrix[0, 1] == 1.0
        assert np.isinf(matrix[0, 2]) and np.isinf(matrix[2, 1])
        assert np.array_equal(matrix, scipy_apsp(q))

    def test_empty_and_singleton(self):
        assert quotient_apsp(CSRGraph.empty(0)).shape == (0, 0)
        single = quotient_apsp(CSRGraph.empty(1))
        assert np.array_equal(single, [[0.0]])


class TestBuilderMatchesReference:
    """The block-streamed builder reproduces the two frozen builders."""

    @pytest.mark.parametrize("block", [1 << 22, 7])
    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("name", ["ba", "road", "rmat", "weighted-road"])
    def test_matches_frozen_builders(self, tmp_path, name, mmap, block):
        graph, clustering = builder_case(name)
        if mmap:
            graph = load_snapshot(save_snapshot(graph, tmp_path / "graph.snap"), mmap=True)
            assert graph.mode == "mmap"
        # A 7-arc block splits rows' crossing arcs of one pair across blocks.
        with mock.patch.object(quotient_module, "_BLOCK_ARCS", block):
            for weighted in (False, True):
                got = build_quotient_graph(graph, clustering, weighted=weighted)
                if weighted and name == "weighted-road":
                    expected = reference_weighted_quotient(graph, clustering)
                else:
                    expected = reference_quotient(graph, clustering, weighted=weighted)
                assert_same_quotient(got, expected)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_frozen_builders_on_random_inputs(self, data):
        graph, clustering = data.draw(builder_inputs())
        block = data.draw(st.sampled_from([1, 7, 1 << 22]))
        with tempfile.TemporaryDirectory() as tmp:
            if data.draw(st.booleans()):
                graph = load_snapshot(save_snapshot(graph, Path(tmp) / "graph.snap"), mmap=True)
            with mock.patch.object(quotient_module, "_BLOCK_ARCS", block):
                for weighted in (False, True):
                    got = build_quotient_graph(graph, clustering, weighted=weighted)
                    if weighted and clustering.is_weighted:
                        expected = reference_weighted_quotient(graph, clustering)
                    else:
                        expected = reference_quotient(graph, clustering, weighted=weighted)
                    assert_same_quotient(got, expected)
            del graph

    def test_weighted_clustering_needs_weighted_graph(self):
        graph, clustering = builder_case("weighted-road")
        unweighted = CSRGraph(indptr=graph.indptr, indices=graph.indices)
        with pytest.raises(ValueError, match="weighted graph"):
            build_quotient_graph(unweighted, clustering, weighted=True)
        assert_same_quotient(
            build_quotient_graph(unweighted, clustering), reference_quotient(graph, clustering)
        )


def _counting(calls):
    def build(*args, **kwargs):
        calls.append(kwargs)
        return build_quotient_graph(*args, **kwargs)

    return build


class TestOneBuildPerClustering:
    """Both quotient flavours come from one build per clustering."""

    @pytest.mark.parametrize("method", ["cluster", "weighted"])
    def test_pipeline_builds_once(self, monkeypatch, mesh20, method):
        calls = []
        monkeypatch.setattr(pipeline, "build_quotient_graph", _counting(calls))
        pipe = DecompositionPipeline(mesh20, method=method, tau=4, seed=0)
        pipe.run()
        pipe.mr_report()
        pipe.quotient_diameter(weighted=False)
        assert len(calls) == 1
        assert pipe.quotient(weighted=False).indices is pipe.quotient(weighted=True).indices

    @pytest.mark.parametrize("weights", [None, "uniform"])
    def test_oracle_builds_once(self, monkeypatch, weights):
        graph, _ = largest_component(road_network_graph(20, 20, seed=1, weights=weights))
        calls = []
        monkeypatch.setattr(oracle, "build_quotient_graph", _counting(calls))
        built = build_distance_oracle(graph, cluster(graph, 4, seed=0))
        assert len(calls) == 1
        assert np.array_equal(np.isfinite(built.lower_matrix), np.isfinite(built.upper_matrix))
