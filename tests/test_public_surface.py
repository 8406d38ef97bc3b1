"""Every public definition in ``src/repro`` has a caller outside ``tests/``.

A public function, class or method that only tests call is surface nobody
uses: it goes, or it is named below with the reason it stays.  The check is
static and by name: a definition counts as used when its name appears as an
identifier (``name`` or ``obj.name``) in any module under ``src/``,
``benchmarks/`` or ``examples/``.  Import statements and ``__all__`` strings
do not count, so a re-export alone is not a use, while any same-named use
is (the check errs towards keeping code).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_TREES = ("src", "benchmarks", "examples")

#: Library surface kept as a whole (edge-list IO, ingestion, graph
#: generators, fault plans), whether or not this repository calls it.
LIBRARY_SURFACE = ("graph/io.py", "graph/ingest.py", "generators/", "faults/")

#: The other public definitions no caller outside tests/ uses, and why each stays.
ALLOWED = {
    "graph/csr.py: CSRGraph.has_edge": "adjacency query of the graph type, beside neighbors() and degree()",
    "graph/components.py: is_connected": "the connectivity predicate the README and the docstrings name",
    "graph/builders.py: from_adjacency_dict": "the hand-written-graph constructor of the builder API",
    "core/clustering.py: Clustering.members": "node ids of one cluster, the basic query on a decomposition",
    "core/diameter.py: DiameterEstimate.contains": "the sandwich test lower <= d <= upper on an estimate",
}


def _definitions(path: Path):
    """``(qualified name, bare name)`` of each public top-level function and
    class and of each public method of those classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _identifiers():
    names = set()
    for tree in CALLER_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def _library_surface(relative: str) -> bool:
    return any(relative.startswith(entry) if entry.endswith("/") else relative == entry for entry in LIBRARY_SURFACE)


def _unused():
    used = _identifiers()
    unused = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if _library_surface(relative):
            continue
        for qualified, name in _definitions(path):
            if name not in used:
                unused.add(f"{relative}: {qualified}")
    return unused


def test_every_public_definition_has_a_caller():
    unused = _unused()
    assert sorted(unused - set(ALLOWED)) == []
    # The allowance is exact: an allowed name that gained a caller (or was
    # deleted) leaves the list.
    assert sorted(set(ALLOWED) - unused) == []
