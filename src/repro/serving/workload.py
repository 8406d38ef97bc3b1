"""Query workloads for the serving plane: synthesis, log files, and replay.

A workload is a :class:`QueryLog` — three aligned arrays (query kind, ``u``,
``v``; ``v = -1`` for unary kinds) in arrival order.  Logs can be synthesized
as a seeded draw over :data:`DEFAULT_MIX` (:func:`synthetic_workload`),
round-tripped through a plain text file (:func:`save_query_log` /
:func:`load_query_log`, one ``<kind> <u> [<v>]`` line per query), and
replayed against a
:class:`~repro.serving.GraphService` in fixed-size batches
(:func:`replay`), each answered by one
:meth:`~repro.serving.GraphService.answer` call.  The replay harness times
every batch, reports latency percentiles and queries/sec, and folds both
answer columns into a SHA-256 checksum — so two replays (e.g. a fresh build
versus a snapshot cold-start) can assert they served *identical* answers by
comparing one hash.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.serving.service import PAIR_KINDS, QUERY_KINDS, check_query_kinds
from repro.utils.rng import SeedLike, as_rng

__all__ = [
    "QUERY_KINDS",
    "DEFAULT_MIX",
    "QueryLog",
    "ReplayReport",
    "synthetic_workload",
    "save_query_log",
    "load_query_log",
    "replay",
]

#: Kind mix of the default synthetic workload (distance-heavy, as a
#: production distance oracle would see).
DEFAULT_MIX: Dict[str, float] = {
    "distance": 0.70,
    "same-cluster": 0.10,
    "eccentricity": 0.10,
    "center": 0.10,
}


@dataclass(frozen=True)
class QueryLog:
    """An ordered batch-friendly query stream.

    ``kinds`` holds codes into :data:`QUERY_KINDS`; ``vs`` is ``-1`` wherever
    the kind is unary (eccentricity / center).  The three fields are stored
    as arrays; an unknown code raises ``ValueError`` naming the first one and
    its position.
    """

    kinds: np.ndarray
    us: np.ndarray
    vs: np.ndarray

    def __post_init__(self) -> None:
        for name in ("kinds", "us", "vs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if not (self.kinds.shape == self.us.shape == self.vs.shape):
            raise ValueError("kinds, us, and vs must be aligned 1-d arrays")
        check_query_kinds(self.kinds)

    def __len__(self) -> int:
        return int(self.kinds.size)

    def counts(self) -> Dict[str, int]:
        """Number of queries per kind name."""
        totals = np.bincount(self.kinds, minlength=len(QUERY_KINDS))
        return {name: int(totals[code]) for code, name in enumerate(QUERY_KINDS)}


def synthetic_workload(num_nodes: int, num_queries: int, *, seed: SeedLike = None) -> QueryLog:
    """A seeded mixed workload of ``num_queries`` over ``num_nodes`` ids.

    Kinds are drawn with the weights of :data:`DEFAULT_MIX`.  Endpoints are
    uniform over the node set, so the workload exercises same-cluster,
    cross-cluster, and ``u == v`` pairs alike.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if num_queries < 0:
        raise ValueError("num_queries must be non-negative")
    weights = np.asarray([DEFAULT_MIX[name] for name in QUERY_KINDS])
    rng = as_rng(seed)
    kinds = rng.choice(len(QUERY_KINDS), size=num_queries, p=weights / weights.sum())
    kinds = kinds.astype(np.int8)
    us = rng.integers(0, num_nodes, size=num_queries, dtype=np.int64)
    vs = rng.integers(0, num_nodes, size=num_queries, dtype=np.int64)
    vs[kinds >= len(PAIR_KINDS)] = -1
    return QueryLog(kinds=kinds, us=us, vs=vs)


def save_query_log(log: QueryLog, path: Union[str, os.PathLike]) -> Path:
    """Write a log as plain text: one ``<kind> <u> [<v>]`` line per query."""
    path = Path(path)
    lines = []
    for code, u, v in zip(log.kinds, log.us, log.vs):
        name = QUERY_KINDS[code]
        if name in PAIR_KINDS:
            lines.append(f"{name} {int(u)} {int(v)}")
        else:
            lines.append(f"{name} {int(u)}")
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def load_query_log(path: Union[str, os.PathLike]) -> QueryLog:
    """Parse a query-log file; raises ``ValueError`` naming the bad line."""
    kinds, us, vs = [], [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        name = parts[0]
        if name not in QUERY_KINDS:
            raise ValueError(
                f"line {lineno}: unknown query kind {name!r}; expected one of {QUERY_KINDS}"
            )
        pair = name in PAIR_KINDS
        expected = 3 if pair else 2
        if len(parts) != expected:
            raise ValueError(
                f"line {lineno}: {name} takes {expected - 1} node id(s), got {stripped!r}"
            )
        try:
            u = int(parts[1])
            v = int(parts[2]) if pair else -1
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer node id in {stripped!r}") from exc
        kinds.append(QUERY_KINDS.index(name))
        us.append(u)
        vs.append(v)
    return QueryLog(
        kinds=np.asarray(kinds, dtype=np.int8),
        us=np.asarray(us, dtype=np.int64),
        vs=np.asarray(vs, dtype=np.int64),
    )


@dataclass
class ReplayReport:
    """Latency / throughput summary of one workload replay."""

    total_queries: int
    num_batches: int
    batch_size: int
    elapsed_s: float
    queries_per_s: float
    latency_ms: Dict[str, float]
    kind_counts: Dict[str, int]
    checksum: str
    batch_seconds: np.ndarray = field(repr=False)

    def summary_lines(self) -> list:
        """Human-readable report for the ``serve`` CLI."""
        latency = " ".join(f"{k}={v:.3f}ms" for k, v in self.latency_ms.items())
        counts = " ".join(f"{k}={v}" for k, v in sorted(self.kind_counts.items()) if v)
        return [
            f"replayed {self.total_queries} queries in {self.num_batches} "
            f"batches of <= {self.batch_size} ({counts})",
            f"throughput: {self.elapsed_s:.3f}s total -> {self.queries_per_s:,.0f} queries/s",
            f"batch latency: {latency}",
            f"answers sha256: {self.checksum}",
        ]


def replay(service, log: QueryLog, *, batch_size: int = 8192) -> ReplayReport:
    """Replay ``log`` against ``service`` in order, ``batch_size`` at a time.

    Each arrival-order batch is answered by one
    :meth:`~repro.serving.GraphService.answer` call, whose two ``float64``
    columns land in the log-ordered answer arrays.  Both arrays are folded
    into the report's SHA-256 checksum — so the checksum depends only on the
    workload and the served answers, *not* on ``batch_size``, and two
    replays (e.g. a fresh build versus a snapshot cold-start, or different
    batch sizes) can assert they served identical answers by comparing one
    hash.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    total = len(log)
    answers_a = np.empty(total, dtype=np.float64)
    answers_b = np.empty(total, dtype=np.float64)
    batch_seconds = []
    for start in range(0, total, batch_size):
        stop = min(start + batch_size, total)
        tick = time.perf_counter()
        answers_a[start:stop], answers_b[start:stop] = service.answer(
            log.kinds[start:stop], log.us[start:stop], log.vs[start:stop]
        )
        batch_seconds.append(time.perf_counter() - tick)
    digest = hashlib.sha256()
    digest.update(memoryview(answers_a))
    digest.update(memoryview(answers_b))
    seconds = np.asarray(batch_seconds, dtype=np.float64)
    elapsed = float(seconds.sum())
    if seconds.size:
        millis = seconds * 1e3
        latency = {
            "p50": float(np.percentile(millis, 50)),
            "p90": float(np.percentile(millis, 90)),
            "p99": float(np.percentile(millis, 99)),
            "max": float(millis.max()),
        }
    else:
        latency = {"p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
    return ReplayReport(
        total_queries=total,
        num_batches=int(seconds.size),
        batch_size=int(batch_size),
        elapsed_s=elapsed,
        queries_per_s=(total / elapsed) if elapsed > 0 else float("inf"),
        latency_ms=latency,
        kind_counts=log.counts(),
        checksum=digest.hexdigest(),
        batch_seconds=seconds,
    )
