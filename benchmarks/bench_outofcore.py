"""Out-of-core ingestion benchmarks and the bounded-memory smoke gate.

The tentpole claim of the out-of-core plane is that streaming ingestion
(:func:`repro.graph.ingest.from_edge_chunks` scattering into an on-disk
snapshot) builds the *bit-identical* CSR graph in bounded memory.  The gate
measures the streamed build and the in-memory ``CSRGraph.from_edges`` path
in fresh interpreters (``_memory.measure_peak_rss`` — ``ru_maxrss`` is
monotonic, so in-process deltas cannot be trusted) on the same ≥5M-edge
R-MAT sample, requires the same graph from both, and fails the build if the
streamed build's peak RSS is not **under 260 MB**.  The bound is on the
streamed build alone, so a leaner ``from_edges`` cannot fail it.

Both measurements land in ``BENCH_mr.json`` (rows carry ``peak_rss_bytes``)
so the memory trajectory stays machine-comparable across changes.
"""

from __future__ import annotations

import json
import time

from _memory import measure_peak_rss

#: R-MAT sample shared by both paths: 2^19 x 16 = 8.4M directed samples,
#: ~7.7M unique undirected edges (>= 5M, where the acceptance gate is
#: defined) — large enough that edge-sized temporaries dominate both peaks.
SCALE = 19
EDGE_FACTOR = 16
SEED = 77
CHUNK_EDGES = 1 << 20

#: The gate: the streamed build's peak RSS at this scale, in MB.  It is
#: tighter than the 35%-of-``from_edges`` ratio it replaced (0.35 x 763 MB =
#: 267 MB); on Linux x86-64 with CPython 3.11 and numpy 2.4 the streamed
#: build peaks at 241 MB and ``from_edges`` at 763 MB.
STREAMING_PEAK_GATE_MB = 260

_RESULT_PRELUDE = """
import json
from pathlib import Path
"""

_IN_MEMORY_CODE = _RESULT_PRELUDE + f"""
import numpy as np
from repro.generators.streaming import rmat_edge_chunks
from repro.graph.csr import CSRGraph

edges = np.concatenate(
    [e for e, _ in rmat_edge_chunks({SCALE}, {EDGE_FACTOR}, seed={SEED}, chunk_edges={CHUNK_EDGES})]
)
graph = CSRGraph.from_edges(edges, num_nodes=1 << {SCALE})
print(json.dumps({{
    "num_nodes": graph.num_nodes,
    "num_edges": graph.num_edges,
    "checksum": int(graph.indices.sum()),
}}))
"""

_STREAMING_CODE = _RESULT_PRELUDE + f"""
import shutil, tempfile
from repro.generators.streaming import rmat_to_snapshot

root = Path(tempfile.mkdtemp(prefix="bench-outofcore-"))
try:
    graph, _ = rmat_to_snapshot(
        root / "g.snap", {SCALE}, {EDGE_FACTOR}, seed={SEED}, chunk_edges={CHUNK_EDGES}
    )
    print(json.dumps({{
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "checksum": int(graph.indices.sum()),
    }}))
finally:
    shutil.rmtree(root, ignore_errors=True)
"""


def test_streaming_ingest_peak_rss_bounded(mr_bench_recorder):
    """The acceptance gate: same graph, bounded memory.

    Runs always at full size (the gate is defined on a >= 5M-edge input, so
    quick mode keeps it); one measured run per path — peak RSS is a
    high-water mark, not a noisy timing, so best-of-N is unnecessary.
    """
    measurements = {}
    for backend, code in (("from_edges", _IN_MEMORY_CODE), ("streaming-snapshot", _STREAMING_CODE)):
        start = time.perf_counter()
        peak, stdout = measure_peak_rss(code)
        seconds = time.perf_counter() - start
        result = json.loads(stdout.strip().splitlines()[-1])
        measurements[backend] = (peak, result)
        mr_bench_recorder(
            benchmark="outofcore_ingest",
            workload=f"rmat-{SCALE}x{EDGE_FACTOR}/{result['num_edges']}-edges",
            pairs=2 * result["num_edges"],
            backend=backend,
            seconds=seconds,
            peak_rss_bytes=peak,
        )

    in_memory_peak, in_memory_result = measurements["from_edges"]
    streaming_peak, streaming_result = measurements["streaming-snapshot"]

    # Bit-identity evidence: same node/edge counts and indices checksum.
    assert streaming_result == in_memory_result
    assert in_memory_result["num_edges"] >= 5_000_000

    assert streaming_peak < STREAMING_PEAK_GATE_MB * 1e6, (
        f"streaming ingestion must peak under {STREAMING_PEAK_GATE_MB} MB on "
        f"{in_memory_result['num_edges']} edges, got {streaming_peak / 1e6:.0f} MB "
        f"(in-memory {in_memory_peak / 1e6:.0f} MB)"
    )
