"""Unit tests for the versioned on-disk snapshot format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import mesh_graph
from repro.graph.csr import CSRGraph
from repro.graph.snapshot import (
    MAGIC,
    SNAPSHOT_VERSION,
    SnapshotWriter,
    is_snapshot,
    load_snapshot,
    read_snapshot_header,
    save_snapshot,
)


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_unweighted_bit_identical(self, tmp_path, mmap):
        graph = mesh_graph(7, 9)
        path = save_snapshot(graph, tmp_path / "mesh.snap")
        loaded = load_snapshot(path, mmap=mmap)
        assert type(loaded) is CSRGraph
        assert np.array_equal(loaded.indptr, graph.indptr)
        assert np.array_equal(loaded.indices, graph.indices)
        assert loaded == graph
        assert loaded.mode == ("mmap" if mmap else "in_memory")

    @pytest.mark.parametrize("mmap", [True, False])
    def test_weighted_bit_identical(self, tmp_path, mmap):
        graph = mesh_graph(5, 6, weights="uniform", seed=3)
        path = save_snapshot(graph, tmp_path / "wmesh.snap")
        loaded = load_snapshot(path, mmap=mmap)
        assert loaded.is_weighted
        assert np.array_equal(loaded.weights, graph.weights)
        assert loaded == graph

    def test_empty_graph(self, tmp_path):
        graph = CSRGraph.empty(3)
        path = save_snapshot(graph, tmp_path / "empty.snap")
        loaded = load_snapshot(path)
        assert loaded.num_nodes == 3 and loaded.num_edges == 0

    def test_default_load_is_mmap(self, tmp_path, tiny_graph):
        path = save_snapshot(tiny_graph, tmp_path / "tiny.snap")
        loaded = load_snapshot(path)
        assert loaded == tiny_graph and loaded.mode == "mmap"

    def test_mmap_views_are_readonly(self, tmp_path, tiny_graph):
        path = save_snapshot(tiny_graph, tmp_path / "tiny.snap")
        loaded = load_snapshot(path, mmap=True)
        with pytest.raises((ValueError, RuntimeError)):
            loaded.indices[0] = 99


class TestHeader:
    def test_fields_and_alignment(self, tmp_path):
        graph = mesh_graph(4, 4, weights="uniform", seed=1)
        path = save_snapshot(graph, tmp_path / "g.snap")
        header = read_snapshot_header(path)
        assert header["version"] == SNAPSHOT_VERSION
        assert header["endianness"] == "little"
        assert header["num_nodes"] == graph.num_nodes
        assert header["num_arcs"] == graph.num_directed_edges
        assert header["weighted"] is True
        assert header["arrays"]["indptr"]["dtype"] == "<i8"
        assert header["arrays"]["weights"]["dtype"] == "<f8"
        assert header["data_offset"] % 64 == 0
        for spec in header["arrays"].values():
            assert spec["offset"] % 64 == 0

    def test_magic_probe(self, tmp_path, tiny_graph):
        path = save_snapshot(tiny_graph, tmp_path / "g.snap")
        assert is_snapshot(path)
        other = tmp_path / "not.snap"
        other.write_bytes(b"definitely not a snapshot")
        assert not is_snapshot(other)
        assert not is_snapshot(tmp_path / "missing.snap")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            read_snapshot_header(path)

    def test_unsupported_version_rejected(self, tmp_path, tiny_graph):
        path = save_snapshot(tiny_graph, tmp_path / "g.snap")
        blob = bytearray(path.read_bytes())
        blob[8:12] = (SNAPSHOT_VERSION + 1).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_snapshot(path)

    def test_truncated_header_rejected(self, tmp_path, tiny_graph):
        path = save_snapshot(tiny_graph, tmp_path / "g.snap")
        (tmp_path / "trunc.snap").write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot_header(tmp_path / "trunc.snap")


class TestAtomicity:
    def test_no_temp_files_after_save(self, tmp_path, tiny_graph):
        save_snapshot(tiny_graph, tmp_path / "g.snap")
        assert [p.name for p in tmp_path.iterdir()] == ["g.snap"]

    def test_writer_abort_removes_temp(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "g.snap", 4, 6)
        assert any(p.name.endswith(".tmp") for p in tmp_path.iterdir())
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_writer_context_aborts_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with SnapshotWriter(tmp_path / "g.snap", 4, 6):
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_writer_streaming_fill(self, tmp_path, tiny_graph):
        with SnapshotWriter(
            tmp_path / "g.snap", tiny_graph.num_nodes, tiny_graph.num_directed_edges
        ) as writer:
            writer.indptr[:] = tiny_graph.indptr
            writer.indices[:] = tiny_graph.indices
            path = writer.finalize()
        assert load_snapshot(path) == tiny_graph

    def test_magic_literal_pinned(self):
        # The on-disk contract: changing this breaks every stored snapshot.
        assert MAGIC == b"REPROGS\x00" and len(MAGIC) == 8
