"""Versioned on-disk graph snapshots: the out-of-core CSR format.

A *snapshot* is the library's raw binary graph layout, designed so that
:func:`load_snapshot` can hand the CSR arrays straight back as ``np.memmap``
views — opening a 100M-edge graph costs one header read plus page faults on
demand, and every process that maps the same file shares one copy through the
OS page cache.

Layout (all integers little-endian)::

    bytes 0..7    magic  b"REPROGS\\0"
    bytes 8..11   format version (uint32; currently 2)
    bytes 12..15  header length in bytes (uint32)
    bytes 16..    header JSON (utf-8), then zero padding to a 64-byte boundary
    ...           array payloads, each starting on a 64-byte boundary
    ...           (v2 only) checksum trailer: magic b"RGCKSUM\\0", JSON length
                  (uint32), then JSON ``{"algo": "crc32", "arrays": {name: crc}}``

The JSON header records ``num_nodes`` / ``num_arcs`` / ``endianness`` plus a
per-array table of ``{dtype, shape, offset}`` entries for ``indptr`` (int64,
``n + 1``), ``indices`` (int64, ``2m``) and the optional ``weights`` (float64,
``2m``).  Payloads are the raw C-contiguous array bytes; 64-byte alignment
keeps the mapped views SIMD-friendly.

Version 2 appends a per-array CRC-32 trailer after the payloads, so readers
can detect bit-flips and short writes (``load_snapshot(..., verify=True)``)
without changing the payload layout at all — the trailer sits past every
array, mapped views are byte-identical to v1, and v1 files (no trailer)
remain fully readable; writers always produce v2.  Verification is opt-in
because a full-payload read defeats the point of lazily mapping a 100M-edge
graph.

Writes are atomic (temp file in the destination directory + ``os.replace``)
so a crashed writer never leaves a half-written snapshot behind, and
concurrent writers of the same deterministic graph race benignly.
:class:`SnapshotWriter` additionally exposes the preallocated payload regions
as writable memmaps, which is how the streaming ingestion plane
(:mod:`repro.graph.ingest`) scatters a CSR build to disk without ever holding
the arrays in memory.
"""

from __future__ import annotations

import json
import os
import secrets
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro import faults

PathLike = Union[str, os.PathLike]

MAGIC = b"REPROGS\x00"
SNAPSHOT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)
_ALIGN = 64
_PREAMBLE = 16  # magic + version + header length
_TRAILER_MAGIC = b"RGCKSUM\x00"
_CRC_CHUNK = 1 << 22  # 4 MiB read blocks for checksum passes

#: dtype codes stored in the header (explicitly little-endian on disk).
_INDPTR_DTYPE = "<i8"
_INDICES_DTYPE = "<i8"
_WEIGHTS_DTYPE = "<f8"

__all__ = [
    "MAGIC",
    "SNAPSHOT_VERSION",
    "SUPPORTED_VERSIONS",
    "SnapshotWriter",
    "read_snapshot_header",
    "read_snapshot_checksums",
    "save_snapshot",
    "load_snapshot",
    "is_snapshot",
]


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _temp_path(path: Path) -> Path:
    """Collision-safe sibling temp name (pid alone is not unique across
    hosts sharing an artifact directory — add a random suffix)."""
    return path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")


def _build_header(num_nodes: int, num_arcs: int, weighted: bool) -> Dict:
    arrays: Dict[str, Dict] = {}
    offset = 0  # filled in below, relative to the payload base
    for name, dtype, length in (
        ("indptr", _INDPTR_DTYPE, num_nodes + 1),
        ("indices", _INDICES_DTYPE, num_arcs),
        *((("weights", _WEIGHTS_DTYPE, num_arcs),) if weighted else ()),
    ):
        arrays[name] = {"dtype": dtype, "shape": [int(length)], "offset": offset}
        offset = _aligned(offset + length * 8)
    return {
        "format": "repro.graph.snapshot",
        "version": SNAPSHOT_VERSION,
        "endianness": "little",
        "num_nodes": int(num_nodes),
        "num_arcs": int(num_arcs),
        "weighted": bool(weighted),
        "arrays": arrays,
        "payload_bytes": int(offset),
    }


def _encode_header(header: Dict) -> bytes:
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    preamble = (
        MAGIC
        + int(header["version"]).to_bytes(4, "little")
        + len(blob).to_bytes(4, "little")
    )
    head = preamble + blob
    return head + b"\x00" * (_aligned(len(head)) - len(head))


def read_snapshot_header(path: PathLike) -> Dict:
    """Parse and validate the header of a snapshot file.

    Returns the header dict extended with ``"data_offset"`` (the absolute
    file offset of the payload base).  Raises ``ValueError`` for anything
    that is not a readable snapshot of a supported version.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        preamble = handle.read(_PREAMBLE)
        if len(preamble) < _PREAMBLE or preamble[:8] != MAGIC:
            raise ValueError(f"{path}: not a repro graph snapshot (bad magic)")
        version = int.from_bytes(preamble[8:12], "little")
        if version not in SUPPORTED_VERSIONS:
            raise ValueError(
                f"{path}: unsupported snapshot version {version} "
                f"(this build reads versions {SUPPORTED_VERSIONS})"
            )
        header_len = int.from_bytes(preamble[12:16], "little")
        blob = handle.read(header_len)
    if len(blob) != header_len:
        raise ValueError(f"{path}: truncated snapshot header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt snapshot header") from exc
    if header.get("format") != "repro.graph.snapshot":
        raise ValueError(f"{path}: unknown snapshot format {header.get('format')!r}")
    if header.get("endianness") != "little":
        raise ValueError(f"{path}: unsupported endianness {header.get('endianness')!r}")
    header["version"] = version  # the preamble is authoritative
    header["data_offset"] = _aligned(_PREAMBLE + header_len)
    return header


def _crc32_region(handle, offset: int, nbytes: int) -> int:
    """Chunked CRC-32 of ``nbytes`` starting at ``offset`` in an open file."""
    handle.seek(offset)
    crc = 0
    remaining = int(nbytes)
    while remaining > 0:
        block = handle.read(min(_CRC_CHUNK, remaining))
        if not block:
            raise ValueError("unexpected end of file inside an array payload")
        crc = zlib.crc32(block, crc)
        remaining -= len(block)
    return crc & 0xFFFFFFFF


def _region_nbytes(spec: Dict) -> int:
    dtype = np.dtype(spec["dtype"])
    return int(dtype.itemsize * int(np.prod(spec["shape"], dtype=np.int64)))


def read_snapshot_checksums(path: PathLike, header: Optional[Dict] = None) -> Optional[Dict[str, int]]:
    """The per-array CRC-32 map from a snapshot's v2 trailer.

    Returns ``None`` for version-1 snapshots (no trailer exists); raises
    ``ValueError`` for a version-2 snapshot whose trailer is missing or
    unreadable — in v2 the trailer is part of the format, so its absence is
    itself corruption (e.g. a short write that lost the file's tail).
    """
    path = Path(path)
    if header is None:
        header = read_snapshot_header(path)
    if header["version"] < 2:
        return None
    trailer_offset = header["data_offset"] + int(header["payload_bytes"])
    with open(path, "rb") as handle:
        handle.seek(trailer_offset)
        preamble = handle.read(len(_TRAILER_MAGIC) + 4)
        if len(preamble) < len(_TRAILER_MAGIC) + 4 or preamble[: len(_TRAILER_MAGIC)] != _TRAILER_MAGIC:
            raise ValueError(f"{path}: missing checksum trailer (truncated snapshot?)")
        blob_len = int.from_bytes(preamble[len(_TRAILER_MAGIC):], "little")
        blob = handle.read(blob_len)
    if len(blob) != blob_len:
        raise ValueError(f"{path}: truncated checksum trailer")
    try:
        trailer = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt checksum trailer") from exc
    if trailer.get("algo") != "crc32":
        raise ValueError(f"{path}: unknown checksum algorithm {trailer.get('algo')!r}")
    return {name: int(crc) for name, crc in trailer["arrays"].items()}


def _verify_payloads(path: Path, header: Dict, checksums: Dict[str, int]) -> None:
    """Compare every array region against its trailer CRC; raise on mismatch."""
    base = header["data_offset"]
    with open(path, "rb") as handle:
        for name, spec in header["arrays"].items():
            expected = checksums.get(name)
            if expected is None:
                raise ValueError(f"{path}: checksum trailer is missing array {name!r}")
            try:
                actual = _crc32_region(handle, base + spec["offset"], _region_nbytes(spec))
            except ValueError as exc:
                raise ValueError(f"{path}: array {name!r} is truncated") from exc
            if actual != expected:
                raise ValueError(
                    f"{path}: checksum mismatch in array {name!r} "
                    f"(expected {expected:#010x}, found {actual:#010x})"
                )


def is_snapshot(path: PathLike) -> bool:
    """Cheap magic-bytes probe (no header parse)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(8) == MAGIC
    except OSError:
        return False


class SnapshotWriter:
    """Preallocated snapshot being filled in place (the streaming write path).

    Creates a temp file of the final size next to ``path``, writes the
    header, and exposes the payload regions as writable memmap views
    (:attr:`indptr`, :attr:`indices`, :attr:`weights`).  :meth:`finalize`
    flushes and atomically renames the temp file into place; :meth:`abort`
    (or garbage collection before ``finalize``) removes it.  Use as a context
    manager to get abort-on-exception for free.
    """

    def __init__(
        self,
        path: PathLike,
        num_nodes: int,
        num_arcs: int,
        *,
        weighted: bool = False,
    ) -> None:
        if num_nodes < 0 or num_arcs < 0:
            raise ValueError("num_nodes and num_arcs must be non-negative")
        self.path = Path(path)
        self.header = _build_header(num_nodes, num_arcs, weighted)
        head = _encode_header(self.header)
        self._data_offset = len(head)
        self._tmp: Optional[Path] = _temp_path(self.path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._tmp, "wb") as handle:
            handle.write(head)
            handle.truncate(len(head) + self.header["payload_bytes"])
        self._maps = {}
        for name, spec in self.header["arrays"].items():
            self._maps[name] = np.memmap(
                self._tmp,
                dtype=np.dtype(spec["dtype"]),
                mode="r+",
                offset=len(head) + spec["offset"],
                shape=tuple(spec["shape"]),
            )

    @property
    def indptr(self) -> np.memmap:
        return self._maps["indptr"]

    @property
    def indices(self) -> np.memmap:
        return self._maps["indices"]

    @property
    def weights(self) -> Optional[np.memmap]:
        return self._maps.get("weights")

    def finalize(self) -> Path:
        """Flush every view, append the v2 checksum trailer, and atomically
        move the snapshot into place."""
        if self._tmp is None:
            raise RuntimeError("snapshot writer already finalized or aborted")
        for view in self._maps.values():
            view.flush()
        self._maps.clear()
        # CRC the payload regions as written on disk (chunked, so a
        # 100M-edge streaming build never holds an array in memory) and
        # append the trailer past the last payload byte.
        base = self._data_offset
        with open(self._tmp, "r+b") as handle:
            checksums = {
                name: _crc32_region(handle, base + spec["offset"], _region_nbytes(spec))
                for name, spec in self.header["arrays"].items()
            }
            blob = json.dumps({"algo": "crc32", "arrays": checksums}, sort_keys=True).encode("utf-8")
            handle.seek(base + int(self.header["payload_bytes"]))
            handle.write(_TRAILER_MAGIC + len(blob).to_bytes(4, "little") + blob)
        os.replace(self._tmp, self.path)
        self._tmp = None
        # Chaos hook: simulated post-write corruption (torn write / bit
        # flip) lands *after* the atomic rename, exactly like real
        # at-rest corruption the rename cannot protect against.
        faults.corrupt_file("graph.snapshot", self.path)
        return self.path

    def abort(self) -> None:
        """Discard the temp file (idempotent)."""
        self._maps.clear()
        if self._tmp is not None:
            Path(self._tmp).unlink(missing_ok=True)
            self._tmp = None

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()

    def __del__(self):  # pragma: no cover - best-effort temp cleanup
        try:
            self.abort()
        except Exception:
            pass


def save_snapshot(graph, path: PathLike) -> Path:
    """Write ``graph`` as a (version-2) snapshot file (atomic); returns the
    final path.

    The arrays are dumped as-is — a graph loaded back from the file is
    bit-identical to ``graph`` (same ``indptr``/``indices``/``weights``) —
    followed by the per-array checksum trailer.
    """
    writer = SnapshotWriter(
        path,
        graph.num_nodes,
        graph.num_directed_edges,
        weighted=graph.weights is not None,
    )
    try:
        writer.indptr[:] = graph.indptr
        writer.indices[:] = graph.indices
        if graph.weights is not None:
            writer.weights[:] = graph.weights
        return writer.finalize()
    except BaseException:
        writer.abort()
        raise


def load_snapshot(path: PathLike, *, mmap: bool = True, verify=False):
    """Open a snapshot as a :class:`~repro.graph.csr.CSRGraph`.

    With ``mmap=True`` (the default) the CSR arrays are read-only
    ``np.memmap`` views — nothing is read eagerly beyond the header and the
    construction-time invariant scan, and the returned graph reports
    ``mode == "mmap"``.  With ``mmap=False`` the arrays are materialized in
    memory (bit-identical, ``mode == "in_memory"``).  Weighted snapshots come
    back as :class:`~repro.weighted.wgraph.WeightedCSRGraph`.

    ``verify`` controls payload integrity checking against the v2 checksum
    trailer (one full sequential read of the payloads before the graph is
    constructed):

    * ``False`` (default) — trust the file; no extra I/O.
    * ``True`` — verify every array; a version-1 snapshot (which has no
      trailer to verify against) raises ``ValueError``.
    * ``"auto"`` — verify when a trailer exists, accept v1 files as-is.

    Any mismatch, truncation, or missing v2 trailer raises ``ValueError``.
    """
    path = Path(path)
    header = read_snapshot_header(path)
    if verify:
        checksums = read_snapshot_checksums(path, header)
        if checksums is None:
            if verify != "auto":
                raise ValueError(
                    f"{path}: cannot verify a version-{header['version']} snapshot "
                    "(no checksum trailer; re-save to upgrade)"
                )
        else:
            _verify_payloads(path, header, checksums)
    base = header["data_offset"]
    arrays = {}
    for name, spec in header["arrays"].items():
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        if mmap:
            arrays[name] = np.memmap(
                path, dtype=dtype, mode="r", offset=base + spec["offset"], shape=shape
            )
        else:
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            with open(path, "rb") as handle:
                handle.seek(base + spec["offset"])
                arrays[name] = np.fromfile(handle, dtype=dtype, count=count).reshape(shape)
    if header["weighted"]:
        from repro.weighted.wgraph import WeightedCSRGraph

        return WeightedCSRGraph(
            indptr=arrays["indptr"], indices=arrays["indices"], weights=arrays["weights"]
        )
    from repro.graph.csr import CSRGraph

    return CSRGraph(indptr=arrays["indptr"], indices=arrays["indices"])
