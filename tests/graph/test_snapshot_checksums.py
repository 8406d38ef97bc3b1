"""The snapshot checksum trailer: verification, and the retired version 1."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.generators import mesh_graph
from repro.graph.csr import CSRGraph
from repro.graph.snapshot import (
    SNAPSHOT_VERSION,
    load_snapshot,
    read_snapshot_checksums,
    read_snapshot_header,
    save_snapshot,
)


@pytest.fixture
def mesh(tmp_path):
    graph = mesh_graph(8, 8)
    path = tmp_path / "mesh.snap"
    save_snapshot(graph, path)
    return graph, path


def save_v1(graph, path):
    """Write ``graph`` as a version-1 snapshot (the library writes and reads only v2).

    A v1 file is a v2 file without the checksum trailer, with version 1 in
    the preamble (which the reader treats as authoritative).
    """
    v2 = save_snapshot(graph, path.with_suffix(".v2"))
    header = read_snapshot_header(v2)
    blob = bytearray(v2.read_bytes()[: header["data_offset"] + header["payload_bytes"]])
    blob[8:12] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    return path


def flip_payload_byte(path, extra_offset=0):
    header = read_snapshot_header(path)
    offset = header["data_offset"] + extra_offset
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestTrailer:
    def test_default_version_is_two(self, mesh):
        _, path = mesh
        assert SNAPSHOT_VERSION == 2
        assert read_snapshot_header(path)["version"] == 2

    def test_checksums_cover_every_array(self, mesh):
        graph, path = mesh
        checksums = read_snapshot_checksums(path)
        header = read_snapshot_header(path)
        assert set(checksums) == set(header["arrays"])
        assert all(isinstance(value, int) for value in checksums.values())

    def test_verified_load_bit_identical(self, mesh):
        graph, path = mesh
        loaded = load_snapshot(path, verify=True)
        assert np.array_equal(np.asarray(loaded.indptr), np.asarray(graph.indptr))
        assert np.array_equal(np.asarray(loaded.indices), np.asarray(graph.indices))

    def test_bitflip_detected(self, mesh):
        _, path = mesh
        flip_payload_byte(path, extra_offset=5)
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_snapshot(path, verify=True)

    def test_truncated_trailer_detected(self, mesh):
        _, path = mesh
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 4)
        with pytest.raises(ValueError, match="truncated checksum trailer"):
            load_snapshot(path, verify=True)

    def test_truncated_payload_detected(self, mesh):
        _, path = mesh
        header = read_snapshot_header(path)
        with open(path, "r+b") as handle:
            handle.truncate(header["data_offset"] + 8)
        with pytest.raises(ValueError):
            load_snapshot(path, verify=True)

    def test_unverified_load_skips_checks(self, mesh):
        """verify=False never reads the trailer — the fast default."""
        graph, path = mesh
        # Corrupt only the trailer; payloads stay intact.
        with open(path, "r+b") as handle:
            handle.seek(-2, os.SEEK_END)
            handle.write(b"xx")
        loaded = load_snapshot(path, verify=False)
        assert np.array_equal(np.asarray(loaded.indices), np.asarray(graph.indices))


class TestV1Compat:
    """Version 1 (no trailer) is no longer read: it fails like a corrupt file."""

    def test_v1_rejected(self, tmp_path):
        path = save_v1(mesh_graph(6, 6), tmp_path / "v1.snap")
        for mmap in (True, False):
            with pytest.raises(ValueError, match="unsupported snapshot version 1"):
                load_snapshot(path, mmap=mmap)

    def test_v1_has_no_checksums(self, tmp_path):
        path = save_v1(mesh_graph(4, 4), tmp_path / "v1.snap")
        with pytest.raises(ValueError, match="unsupported snapshot version 1"):
            read_snapshot_checksums(path)

    def test_v1_strict_verify_rejected(self, tmp_path):
        path = save_v1(mesh_graph(4, 4), tmp_path / "v1.snap")
        with pytest.raises(ValueError, match="unsupported snapshot version 1"):
            load_snapshot(path, verify=True)

    def test_unknown_version_rejected(self, tmp_path):
        path = save_snapshot(mesh_graph(4, 4), tmp_path / "x.snap")
        blob = bytearray(path.read_bytes())
        blob[8:12] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unsupported snapshot version 9"):
            read_snapshot_header(path)


class TestWeightedTrailer:
    def test_weighted_roundtrip_verified(self, tmp_path):
        
        base = mesh_graph(5, 5)
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.5, 2.0, size=base.num_edges * 2)
        graph = CSRGraph(indptr=base.indptr, indices=base.indices, weights=weights)
        path = tmp_path / "w.snap"
        save_snapshot(graph, path)
        checksums = read_snapshot_checksums(path)
        assert "weights" in checksums
        loaded = load_snapshot(path, verify=True)
        assert np.array_equal(np.asarray(loaded.weights), weights)
