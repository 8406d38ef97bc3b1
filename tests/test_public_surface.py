"""Every public definition in ``src/repro`` has a caller outside ``tests/``,
and every defaulted parameter of one has a setter there.

A public function, class or method that only tests call is surface nobody
uses: it goes, or it is named below with the reason it stays.  The check is
static and by name: a function or class counts as used when its name
appears as an identifier (``name`` or ``obj.name``) in any module under
``src/``, ``benchmarks/`` or ``examples/``, and a method only when it
appears as an attribute (``obj.name``): a parameter or local that shares a
method's name does not keep the method.  Import statements and ``__all__``
strings do not count, so a re-export alone is not a use, while any
same-named use is (the check errs towards keeping code).

The same holds one level down.  A defaulted parameter of a public function,
of a public class's ``__init__`` or of its public methods that no call in
those trees passes is a setting only tests vary: its one value belongs
inline.  A call passes it by keyword, by position, or possibly through
``*args`` / ``**kwargs``; the callee is matched by bare name (``cls(...)``
names the enclosing class), so again any same-named call counts.  A
defaulted field of a public frozen dataclass is a parameter of its
constructor, and a ``replace(obj, field=...)`` call naming it by keyword
also sets it (a ``**`` in such a call does not count: ``replace`` takes any
dataclass).  Non-frozen dataclasses hold state, and their defaults are
initial values, not settings.  Run as a script, the module prints the
number of defaulted public parameters and fields (a tracked number, like
the line counts).
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
    "graph/csr.py: CSRGraph.edge_weight": "weight query of the graph type, beside has_edge()",
    "graph/csr.py: CSRGraph.degree": "the per-node degree query of the graph type, beside neighbors()",
    "graph/components.py: is_connected": "the connectivity predicate the README and the docstrings name",
    "graph/builders.py: from_adjacency_dict": "the hand-written-graph constructor of the builder API",
    "core/clustering.py: Clustering.members": "node ids of one cluster, the basic query on a decomposition",
    "core/diameter.py: DiameterEstimate.contains": "the sandwich test lower <= d <= upper on an estimate",
}


def _definitions(source: str):
    """``(qualified name, bare name, is method)`` of each public top-level
    function and class and of each public method of those classes."""
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, True


def _identifiers(sources):
    """``(bare names, attribute names)`` used in ``sources``."""
    names, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def _caller_sources():
    return [path.read_text(encoding="utf-8") for tree in CALLER_TREES for path in (ROOT / tree).rglob("*.py")]


def _library_surface(relative: str) -> bool:
    return any(relative.startswith(entry) if entry.endswith("/") else relative == entry for entry in LIBRARY_SURFACE)


def _unused_in(definitions, names, attributes):
    """Qualified names of the ``definitions`` (a source) that neither the
    bare ``names`` nor the ``attributes`` of the callers use."""
    return {
        qualified
        for qualified, name, is_method in _definitions(definitions)
        if name not in attributes and (is_method or name not in names)
    }


def _unused():
    names, attributes = _identifiers(_caller_sources())
    unused = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if not _library_surface(relative):
            source = path.read_text(encoding="utf-8")
            unused |= {f"{relative}: {name}" for name in _unused_in(source, names, attributes)}
    return unused


#: Defaulted parameters no call outside tests/ passes, and why each stays.
ALLOWED_DEFAULTS = {
    "mapreduce/pool.py: SupervisedPool(timeout=)": "hung-worker detection, which is safety code",
    "experiments/runner.py: main(argv=)": "the CLI entry point",
    "graph/builders.py: from_adjacency_dict(num_nodes=)": "the hand-written-graph constructor of the builder API",
    "graph/csr.py: CSRGraph.degree(node=)": "the per-node degree query of the graph API",
}


def _defaults(function: ast.FunctionDef, bound: bool):
    """``(name, position)`` of each defaulted parameter; ``position`` counts
    the caller's positional arguments (``self`` / ``cls`` excluded) and is
    ``None`` for keyword-only parameters."""
    args = function.args
    positional = args.posonlyargs + args.args
    shift = 1 if bound and not any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list) else 0
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield arg.arg, index - shift
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(decorator, ast.Call)
        and getattr(decorator.func, "id", getattr(decorator.func, "attr", None)) == "dataclass"
        and any(kw.arg == "frozen" and getattr(kw.value, "value", None) is True for kw in decorator.keywords)
        for decorator in node.decorator_list
    )


def _fields(node: ast.ClassDef):
    """``(name, position)`` of each defaulted field of a dataclass body;
    ``ClassVar`` annotations are constants, not fields."""
    fields = [
        item
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and "ClassVar" not in ast.unparse(item.annotation)
    ]
    for position, item in enumerate(fields):
        if item.value is not None:
            yield item.target.id, position


def _defaulted_parameters():
    """``{"<file>: <qualified>(<parameter>=)": (callee name, parameter,
    position, is field)}`` over the public functions, ``__init__`` methods,
    public methods and public frozen dataclass fields outside the library
    surface."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if _library_surface(relative):
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                members = [(node.name, node.name, node, False)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _frozen_dataclass(node):
                    for name, position in _fields(node):
                        found[f"{relative}: {node.name}({name}=)"] = (node.name, name, position, True)
                members = []
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if item.name == "__init__":  # called as ClassName(...)
                        members.append((node.name, node.name, item, True))
                    elif not item.name.startswith("_"):
                        members.append((f"{node.name}.{item.name}", item.name, item, True))
            else:
                continue
            for qualified, callee, function, bound in members:
                for name, position in _defaults(function, bound):
                    found[f"{relative}: {qualified}({name}=)"] = (callee, name, position, False)
    return found


def _calls():
    """``{callee name: (keywords passed, most positional arguments, starred)}``
    over every call in the caller trees."""
    calls = {}

    def visit(node, enclosing):
        if isinstance(node, ast.ClassDef):
            enclosing = node.name
        if isinstance(node, ast.Call):
            target = node.func
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name == "cls" and enclosing is not None:
                name = enclosing
            if name is not None:
                keywords, most, starred = calls.get(name, (set(), 0, False))
                keywords |= {kw.arg for kw in node.keywords if kw.arg is not None}
                positional = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
                starred = starred or len(positional) < len(node.args) or any(kw.arg is None for kw in node.keywords)
                calls[name] = (keywords, max(most, len(positional)), starred)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in CALLER_TREES:
        for path in (ROOT / tree).rglob("*.py"):
            visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return calls


def _unset_parameters():
    calls = _calls()
    replaced = calls.get("replace", (set(), 0, False))[0]
    unset = set()
    for key, (callee, name, position, is_field) in _defaulted_parameters().items():
        keywords, most, starred = calls.get(callee, (set(), 0, False))
        if is_field and name in replaced:
            continue
        if not (starred or name in keywords or (position is not None and position < most)):
            unset.add(key)
    return unset


def test_every_parameter_has_a_setter():
    unset = _unset_parameters()
    assert sorted(unset - set(ALLOWED_DEFAULTS)) == []
    # Exact, as above: an allowed parameter that gained a setter (or was
    # deleted) leaves the list.
    assert sorted(set(ALLOWED_DEFAULTS) - unset) == []


def test_a_same_named_parameter_does_not_use_a_method():
    definitions = (
        "class Graph:\n"
        "    def degree(self, node): ...\n"
        "    def radii(self): ...\n"
        "    def reached(self): ...\n"
        "def helper(): ...\n"
    )
    callers = [
        "def f(degree, helper=None):\n"
        "    radii = degree + 1\n"
        "    return Graph().reached(), radii, helper\n"
    ]
    # A function still counts through its bare name; a method only through
    # an attribute reference.
    assert _unused_in(definitions, *_identifiers(callers)) == {"Graph.degree", "Graph.radii"}


def test_frozen_dataclass_fields_are_parameters():
    source = (
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "    name: str\n"
        "    seed: int = 0\n"
        "@dataclass\n"
        "class State:\n"
        "    count: int = 0\n"
    )
    config, state = ast.parse(source).body
    # A ClassVar is a constant; positions count the required fields too.
    assert _frozen_dataclass(config) and not _frozen_dataclass(state)
    assert list(_fields(config)) == [("seed", 1)]


def test_every_public_definition_has_a_caller():
    unused = _unused()
    assert sorted(unused - set(ALLOWED)) == []
    # The allowance is exact: an allowed name that gained a caller (or was
    # deleted) leaves the list.
    assert sorted(set(ALLOWED) - unused) == []


if __name__ == "__main__":
    print(len(_defaulted_parameters()))
