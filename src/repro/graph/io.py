"""Edge-list input/output for the unified graph substrate.

Supports the plain whitespace-separated edge-list format used by the SNAP
datasets the paper evaluates on (``# comment`` lines, one ``u v`` pair per
line, an optional weight column).  It round-trips the optional ``weights``
array of the unified :class:`~repro.graph.csr.CSRGraph` core, so the
weighted and unweighted stacks share one IO path; binary caching uses the
snapshot format of :mod:`repro.graph.snapshot` (``CSRGraph.save`` / ``load``).

Parsing is streaming at its core: :func:`iter_edge_list_chunks` reads a file
in bounded line chunks and yields ``(edges, weights)`` arrays, which is what
the out-of-core ingestion plane (:mod:`repro.graph.ingest`) consumes for
multi-GB inputs.  :func:`parse_edge_list_text` and :func:`load_edge_list`
are thin accumulating wrappers over the same chunk parser; ``load_edge_list``
additionally guards against silently materializing huge files via
``max_edges``.
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.graph.builders import relabel_compact, symmetrize_edges
from repro.graph.csr import CSRGraph

PathLike = Union[str, os.PathLike]

_WEIGHTED_MARKER = "# weighted"

#: Data lines per chunk yielded by the streaming parser.
DEFAULT_CHUNK_EDGES = 1 << 20

#: Edge count past which :func:`load_edge_list` refuses to materialize and
#: points at the streaming ingest path instead.
DEFAULT_MAX_EDGES = 50_000_000

__all__ = [
    "load_edge_list",
    "save_edge_list",
    "parse_edge_list_text",
    "iter_edge_list_chunks",
]


class _ParseState:
    """Cross-chunk parser state: weighted-marker sighting + weight validity."""

    __slots__ = ("saw_weighted_marker", "weights_valid", "data_lines")

    def __init__(self) -> None:
        self.saw_weighted_marker = False
        self.weights_valid = True
        self.data_lines = 0


def _parsed_chunks(
    lines: Iterable[str],
    *,
    collect_weights: bool,
    chunk_edges: int,
    state: _ParseState,
    require_weights: bool = False,
) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Core streaming parser: yield ``(edges, weights)`` per line chunk.

    Weight semantics mirror the historical whole-file parser: weights are
    only meaningful when *every* data line carries a numeric third column.
    ``state.weights_valid`` flips (sticky) on the first line that does not;
    chunks yielded after the flip carry ``weights=None`` and the caller is
    expected to discard earlier weight arrays.  With ``require_weights=True``
    the flip is an immediate error instead (the contract of weighted loads).
    """
    if chunk_edges <= 0:
        raise ValueError("chunk_edges must be positive")
    us: list = []
    vs: list = []
    ws: list = []

    def emit() -> Tuple[np.ndarray, Optional[np.ndarray]]:
        edges = np.empty((len(us), 2), dtype=np.int64)
        edges[:, 0] = us
        edges[:, 1] = vs
        weights = None
        if collect_weights and state.weights_valid and len(ws) == len(us):
            weights = np.asarray(ws, dtype=np.float64)
        us.clear()
        vs.clear()
        ws.clear()
        return edges, weights

    lineno = 0
    for line in lines:
        lineno += 1
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            if stripped == _WEIGHTED_MARKER:
                state.saw_weighted_marker = True
            continue
        parts = stripped.split()
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected at least two columns, got {stripped!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer endpoints in {stripped!r}") from exc
        us.append(u)
        vs.append(v)
        state.data_lines += 1
        if collect_weights and state.weights_valid:
            weight_ok = False
            if len(parts) >= 3:
                try:
                    ws.append(float(parts[2]))
                    weight_ok = True
                except ValueError:
                    pass
            if not weight_ok:
                if require_weights:
                    raise ValueError(
                        f"line {lineno}: weighted load requires a numeric third "
                        f"column on every data line, got {stripped!r}"
                    )
                state.weights_valid = False
                ws.clear()
        if len(us) >= chunk_edges:
            yield emit()
    if us:
        yield emit()


def parse_edge_list_text(
    text: str, *, with_weights: bool = False
) -> Union[np.ndarray, Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Parse SNAP-style edge-list text into an ``(m, 2)`` int array.

    Lines starting with ``#`` or ``%`` are comments; blank lines are skipped.
    Each data line must contain at least two whitespace-separated integers.
    With ``with_weights=True`` the return value is ``(edges, weights)``, where
    ``weights`` is a float array parsed from the third column when *every*
    data line carries one (an empty array when there are no data lines), and
    ``None`` otherwise (so unweighted files and files with non-numeric extra
    columns stay unweighted).  Without it, extra columns are ignored and only
    the edge array is returned.

    Internally this runs the streaming chunk parser over the text's lines
    (no edge-count-sized Python list is ever built); pass a file to
    :func:`iter_edge_list_chunks` directly to avoid holding even the text.
    """
    state = _ParseState()
    edge_chunks: list = []
    weight_chunks: list = []
    for edges, weights in _parsed_chunks(
        iter(text.splitlines()),
        collect_weights=with_weights,
        chunk_edges=DEFAULT_CHUNK_EDGES,
        state=state,
    ):
        edge_chunks.append(edges)
        if weights is not None:
            weight_chunks.append(weights)
    edge_array = (
        np.concatenate(edge_chunks) if edge_chunks else np.zeros((0, 2), dtype=np.int64)
    )
    if not with_weights:
        return edge_array
    if state.weights_valid:
        weight_array = (
            np.concatenate(weight_chunks) if weight_chunks else np.zeros(0, dtype=np.float64)
        )
    else:
        weight_array = None
    return edge_array, weight_array


def iter_edge_list_chunks(
    path: PathLike,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    with_weights: bool = False,
) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Stream an edge-list file as ``(edges, weights)`` array chunks.

    Reads the file line-by-line (never as one string), yielding at most
    ``chunk_edges`` edges per chunk — the bounded-memory feed for
    :func:`repro.graph.ingest.ingest_edge_list`.  With ``with_weights=True``
    every data line must carry a numeric third column (``ValueError``
    otherwise); without it the second element of every yield is ``None``.
    """
    state = _ParseState()
    with open(Path(path), "r", encoding="utf-8") as handle:
        for edges, weights in _parsed_chunks(
            handle,
            collect_weights=with_weights,
            chunk_edges=chunk_edges,
            state=state,
            require_weights=with_weights,
        ):
            yield edges, weights if with_weights else None


def load_edge_list(
    path: PathLike,
    *,
    symmetrize: bool = True,
    relabel: bool = True,
    num_nodes: Optional[int] = None,
    weighted: Optional[bool] = None,
    max_edges: Optional[int] = DEFAULT_MAX_EDGES,
) -> Tuple[CSRGraph, np.ndarray]:
    """Load a graph from a whitespace edge-list file.

    Parameters
    ----------
    path:
        File to read.
    symmetrize:
        Treat the file as a directed edge list and take its symmetric closure
        (the preprocessing the paper applies to the Twitter crawl).
    relabel:
        Remap arbitrary node ids to a dense ``0..n-1`` range.
    num_nodes:
        Optional explicit node count (only meaningful when ``relabel=False``).
    weighted:
        ``True`` parses the third column as edge weights (raising when any
        data line lacks a numeric one); ``False`` ignores extra columns (the
        safe reading of SNAP-style files, whose third column is often a
        timestamp).  The default ``None`` parses weights only for files
        carrying the ``# weighted`` header marker :func:`save_edge_list`
        writes, so our own weighted files round-trip while foreign files
        stay unweighted.
    max_edges:
        Guard against silently materializing huge files: loading stops with a
        ``ValueError`` once more than this many data lines have been read
        (default 50M).  Pass ``None`` to disable.  For inputs past the guard
        use :func:`repro.graph.ingest.ingest_edge_list`, which builds the CSR
        arrays in bounded memory (optionally straight into an on-disk
        snapshot).

    Returns
    -------
    (graph, original_ids):
        ``original_ids[i]`` is the id in the file of node ``i``; when
        ``relabel=False`` it is simply ``arange(n)``.  Weighted loads return
        a :class:`~repro.weighted.wgraph.WeightedCSRGraph` (duplicate
        undirected edges keep the minimum weight).
    """
    state = _ParseState()
    edge_chunks: list = []
    weight_chunks: list = []
    collect = weighted is None or weighted
    with open(Path(path), "r", encoding="utf-8") as handle:
        for edges_part, weights_part in _parsed_chunks(
            handle,
            collect_weights=collect,
            chunk_edges=DEFAULT_CHUNK_EDGES,
            state=state,
        ):
            if max_edges is not None and state.data_lines > max_edges:
                raise ValueError(
                    f"{path}: more than max_edges={max_edges} edges; "
                    "use repro.graph.ingest.ingest_edge_list for out-of-core "
                    "streaming construction (or raise/disable max_edges)"
                )
            edge_chunks.append(edges_part)
            if weights_part is not None:
                weight_chunks.append(weights_part)
    if weighted is None:
        weighted = state.saw_weighted_marker
    edges = np.concatenate(edge_chunks) if edge_chunks else np.zeros((0, 2), dtype=np.int64)
    weights: Optional[np.ndarray] = None
    if weighted:
        if not state.weights_valid and edges.size:
            raise ValueError(
                f"{path}: weighted load requires a numeric third column on every data line"
            )
        if state.weights_valid:
            weights = (
                np.concatenate(weight_chunks)
                if weight_chunks
                else np.zeros(0, dtype=np.float64)
            )
        if weights is None or (edges.size and weights.size != edges.shape[0]):
            raise ValueError(
                f"{path}: weighted load requires a numeric third column on every data line"
            )
    if weights is None and symmetrize:
        edges = symmetrize_edges(edges)
    if relabel:
        edges, original_ids = relabel_compact(edges)
        explicit_nodes = int(original_ids.size)
    else:
        explicit_nodes = num_nodes
        original_ids = None
    if weights is None:
        graph = CSRGraph.from_edges(edges, num_nodes=explicit_nodes)
    else:
        from repro.weighted.wgraph import WeightedCSRGraph

        graph = WeightedCSRGraph.from_edges(edges, num_nodes=explicit_nodes, weights=weights)
    if original_ids is None:
        original_ids = np.arange(graph.num_nodes, dtype=np.int64)
    return graph, original_ids


def save_edge_list(graph: CSRGraph, path: PathLike, *, header: Optional[str] = None) -> None:
    """Write ``graph`` as a whitespace edge list (each edge once, ``u < v``).

    Weighted graphs emit a third column with the edge weight plus a
    ``# weighted`` header marker so :func:`load_edge_list` round-trips them.
    """
    edges, weights = graph.edge_list()
    buffer = io.StringIO()
    if header:
        for line in header.splitlines():
            buffer.write(f"# {line}\n")
    buffer.write(f"# nodes: {graph.num_nodes} edges: {graph.num_edges}\n")
    if weights is not None:
        buffer.write(f"{_WEIGHTED_MARKER}\n")
    if weights is None:
        for u, v in edges:
            buffer.write(f"{int(u)}\t{int(v)}\n")
    else:
        for (u, v), w in zip(edges, weights):
            buffer.write(f"{int(u)}\t{int(v)}\t{float(w)!r}\n")
    Path(path).write_text(buffer.getvalue())
