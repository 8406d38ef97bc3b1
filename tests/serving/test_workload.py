"""Tests for workload synthesis, query-log files, and the replay harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import mesh_graph
from repro.serving import (
    DEFAULT_MIX,
    QUERY_KINDS,
    GraphService,
    QueryLog,
    load_query_log,
    replay,
    save_query_log,
    synthetic_workload,
)


@pytest.fixture(scope="module")
def service():
    return GraphService.build(mesh_graph(10, 10), seed=0)


class TestSyntheticWorkload:
    def test_size_and_seed_determinism(self):
        a = synthetic_workload(100, 500, seed=1)
        b = synthetic_workload(100, 500, seed=1)
        assert len(a) == 500
        assert np.array_equal(a.kinds, b.kinds)
        assert np.array_equal(a.us, b.us)
        assert np.array_equal(a.vs, b.vs)

    def test_mix_respected(self):
        log = synthetic_workload(50, 20_000, seed=0)
        counts = log.counts()
        for name, share in DEFAULT_MIX.items():
            assert abs(counts[name] / 20_000 - share) < 0.02, name

    def test_default_mix_covers_all_kinds(self):
        log = synthetic_workload(50, 4_000, seed=0)
        counts = log.counts()
        assert set(counts) == set(QUERY_KINDS)
        assert all(counts[name] > 0 for name in DEFAULT_MIX)

    def test_unary_kinds_have_sentinel_v(self):
        log = synthetic_workload(50, 2_000, seed=2)
        unary = np.isin(log.kinds, [QUERY_KINDS.index("eccentricity"),
                                    QUERY_KINDS.index("center")])
        assert np.all(log.vs[unary] == -1)
        assert np.all(log.vs[~unary] >= 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_nodes"):
            synthetic_workload(0, 10)
        with pytest.raises(ValueError, match="num_queries"):
            synthetic_workload(10, -1)

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            QueryLog(
                kinds=np.zeros(3, dtype=np.int8),
                us=np.zeros(2, dtype=np.int64),
                vs=np.zeros(3, dtype=np.int64),
            )


    def test_unknown_kind_code_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind code 7 at position 1"):
            QueryLog(
                kinds=np.asarray([0, 7, 2], dtype=np.int8),
                us=np.zeros(3, dtype=np.int64),
                vs=np.asarray([1, -1, -1], dtype=np.int64),
            )
        with pytest.raises(ValueError, match="code -3 at position 0"):
            QueryLog(
                kinds=np.asarray([-3], dtype=np.int64),
                us=np.zeros(1, dtype=np.int64),
                vs=np.zeros(1, dtype=np.int64),
            )
        with pytest.raises(ValueError, match="unknown query kind code 7 at position 1"):
            QueryLog(kinds=[0, 7, 2], us=[0, 1, 2], vs=[1, -1, -1])


class TestQueryLogFiles:
    def test_round_trip(self, tmp_path):
        log = synthetic_workload(80, 300, seed=4)
        path = save_query_log(log, tmp_path / "queries.log")
        loaded = load_query_log(path)
        assert np.array_equal(log.kinds, loaded.kinds)
        assert np.array_equal(log.us, loaded.us)
        assert np.array_equal(log.vs, loaded.vs)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "queries.log"
        path.write_text("# header\n\ndistance 0 5\n  \ncenter 3\n")
        log = load_query_log(path)
        assert len(log) == 2
        assert log.counts()["distance"] == 1
        assert log.counts()["center"] == 1

    def test_unknown_kind_names_line(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("distance 0 1\nbogus 2 3\n")
        with pytest.raises(ValueError, match="line 2: unknown query kind"):
            load_query_log(path)

    def test_wrong_arity_names_line(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("distance 0\n")
        with pytest.raises(ValueError, match="line 1: distance takes 2"):
            load_query_log(path)
        path.write_text("center 0 1\n")
        with pytest.raises(ValueError, match="line 1: center takes 1"):
            load_query_log(path)

    def test_non_integer_id_names_line(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("distance 0 x\n")
        with pytest.raises(ValueError, match="line 1: non-integer"):
            load_query_log(path)

    def test_empty_log_round_trip(self, tmp_path):
        log = synthetic_workload(10, 0, seed=0)
        loaded = load_query_log(save_query_log(log, tmp_path / "empty.log"))
        assert len(loaded) == 0


class TestReplay:
    def test_counts_and_batches(self, service):
        log = synthetic_workload(service.num_nodes, 1_000, seed=5)
        report = replay(service, log, batch_size=128)
        assert report.total_queries == 1_000
        assert report.num_batches == 8
        assert report.kind_counts == log.counts()
        assert report.elapsed_s > 0
        assert set(report.latency_ms) == {"p50", "p90", "p99", "max"}

    def test_deterministic_checksum(self, service):
        log = synthetic_workload(service.num_nodes, 1_000, seed=6)
        first = replay(service, log, batch_size=100)
        second = replay(service, log, batch_size=100)
        assert first.checksum == second.checksum

    def test_checksum_batch_size_invariant(self, service):
        """Batching is pure execution strategy: the served bytes are the
        same no matter how the stream is chopped."""
        log = synthetic_workload(service.num_nodes, 1_000, seed=7)
        assert (
            replay(service, log, batch_size=64).checksum
            == replay(service, log, batch_size=999).checksum
        )

    def test_checksum_sensitive_to_workload(self, service):
        a = synthetic_workload(service.num_nodes, 500, seed=8)
        b = synthetic_workload(service.num_nodes, 500, seed=9)
        assert replay(service, a).checksum != replay(service, b).checksum

    def test_empty_log(self, service):
        report = replay(service, synthetic_workload(service.num_nodes, 0, seed=0))
        assert report.total_queries == 0
        assert report.num_batches == 0
        assert report.latency_ms["max"] == 0.0

    def test_bad_batch_size_rejected(self, service):
        log = synthetic_workload(service.num_nodes, 10, seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            replay(service, log, batch_size=0)

    def test_summary_lines_mention_throughput(self, service):
        log = synthetic_workload(service.num_nodes, 200, seed=1)
        lines = replay(service, log).summary_lines()
        text = "\n".join(lines)
        assert "queries/s" in text
        assert "sha256" in text
