"""Spans recorded from the benchmark's own files, around calls into each layer.

A :class:`Tracer` keeps spans (name, start, end, parent, workload, repeat and
free-form attributes) in memory and writes them out as JSONL and as Chrome
trace-event JSON (viewable in Perfetto) when the run ends.  Untraced passes
use :data:`NULL_TRACER`, whose spans cost one no-op context manager.

:func:`instrument` wraps the calls made *inside* a layer by rebinding names
in the calling module's namespace for the duration of a traced pass, and
restores every binding afterwards; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    """In-memory span recorder."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.repeat: Optional[int] = None
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "repeat": self.repeat,
            "start": time.perf_counter_ns() - self._t0,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter_ns() - self._t0

    def wrap(self, fn, name: str, describe=None):
        """``fn`` inside a span; ``describe(args, kwargs, result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
                return result

        return traced

    # ------------------------------------------------------------------ #
    def seconds(self, span: Dict) -> float:
        return (span["end"] - span["start"]) / 1e9

    def named(self, name: str, repeat: Optional[int] = None) -> List[Dict]:
        return [
            span
            for span in self.spans
            if span["name"] == name and (repeat is None or span["repeat"] == repeat)
        ]

    def total(self, name: str, repeat: Optional[int] = None, **match) -> float:
        """Summed seconds of the spans called ``name`` whose attributes match."""
        return sum(
            self.seconds(span)
            for span in self.named(name, repeat)
            if all(span["attrs"].get(key) == value for key, value in match.items())
        )

    def children(self, span: Dict) -> List[Dict]:
        return [child for child in self.spans if child["parent"] == span["id"]]

    def write(self, directory: Path, stem: str) -> List[Path]:
        """Write ``<stem>.jsonl`` and ``<stem>.chrome.json`` into ``directory``."""
        directory.mkdir(parents=True, exist_ok=True)
        jsonl = directory / f"{stem}.jsonl"
        with jsonl.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=_jsonable) + "\n")
        events = [
            {
                "name": span["name"],
                "ph": "X",
                "ts": span["start"] / 1e3,
                "dur": (span["end"] - span["start"]) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"repeat": span["repeat"], **span["attrs"]},
            }
            for span in self.spans
        ]
        chrome = directory / f"{stem}.chrome.json"
        chrome.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}, default=_jsonable)
        )
        return [jsonl, chrome]


def _jsonable(value):
    return value.item() if hasattr(value, "item") else str(value)


class _NullTracer:
    """Stands in for a :class:`Tracer` in untraced passes."""

    _NULL = contextlib.nullcontext({})

    def span(self, name: str, **attrs):
        return self._NULL


NULL_TRACER = _NullTracer()


class _KernelsProxy:
    """The ``kernels`` module as seen from one caller, with some calls traced."""

    def __init__(self, module, tracer: Tracer, names) -> None:
        self._module = module
        for name in names:
            setattr(self, name, tracer.wrap(getattr(module, name), f"kernels.{name}"))

    def __getattr__(self, name):
        return getattr(self._module, name)


def _quotient_shape(args, kwargs, result) -> Dict:
    return {
        "weighted": result.is_weighted,
        "nodes": result.num_nodes,
        "edges": result.num_edges,
    }


def _apsp_shape(args, kwargs, result) -> Dict:
    return {"weighted": args[0].is_weighted, "nodes": int(result.shape[0])}


def _diameter_shape(args, kwargs, result) -> Dict:
    return {"weighted": args[0].is_weighted}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the in-layer call sites to traced wrappers for one pass.

    * ``core.quotient``: its ``kernels`` module reference (``delta_stepping``,
      ``msbfs_levels``) and ``quotient_apsp``, called by ``quotient_diameter``;
    * ``core.pipeline``: ``build_quotient_graph`` and ``quotient_diameter``;
    * ``core.oracle``: ``build_quotient_graph`` and ``quotient_apsp``;
    * ``serving.service``: ``build_distance_oracle``, and
      ``DecompositionPipeline`` (a subclass whose ``decompose`` is traced).
    """
    from repro.core import oracle, pipeline, quotient
    from repro.serving import service

    class TracedPipeline(pipeline.DecompositionPipeline):
        def decompose(self):
            with tracer.span("oracle.decompose"):
                return super().decompose()

    bindings = [
        (quotient, "kernels", _KernelsProxy(quotient.kernels, tracer, ("delta_stepping", "msbfs_levels"))),
        (quotient, "quotient_apsp", tracer.wrap(quotient.quotient_apsp, "quotient.apsp", _apsp_shape)),
        (pipeline, "build_quotient_graph", tracer.wrap(pipeline.build_quotient_graph, "quotient.build", _quotient_shape)),
        (pipeline, "quotient_diameter", tracer.wrap(pipeline.quotient_diameter, "quotient.diameter", _diameter_shape)),
        (oracle, "build_quotient_graph", tracer.wrap(oracle.build_quotient_graph, "quotient.build", _quotient_shape)),
        (oracle, "quotient_apsp", tracer.wrap(oracle.quotient_apsp, "quotient.apsp", _apsp_shape)),
        (service, "build_distance_oracle", tracer.wrap(service.build_distance_oracle, "oracle.build")),
        (service, "DecompositionPipeline", TracedPipeline),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in bindings]
    try:
        for module, name, replacement in bindings:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


@contextlib.contextmanager
def instrument_service(tracer: Tracer, svc):
    """Trace the four ``GraphService.query_*`` calls ``replay`` makes on ``svc``."""
    kinds = {
        "query_distance": "distance",
        "query_same_cluster": "same_cluster",
        "query_eccentricity": "eccentricity",
        "query_centers": "centers",
    }
    for method, kind in kinds.items():
        setattr(
            svc,
            method,
            tracer.wrap(
                getattr(svc, method),
                "serving.query",
                lambda args, kwargs, result, kind=kind: {"kind": kind, "size": len(args[0])},
            ),
        )
    try:
        yield
    finally:
        for method in kinds:
            delattr(svc, method)
