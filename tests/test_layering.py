"""Package layering: the library layers never import the application layers.

``repro.core``, ``repro.graph``, ``repro.mapreduce``, ``repro.generators`` and
``repro.utils`` are the library; ``repro.experiments`` (the paper's tables and
the suite) and ``repro.serving`` (the query service) are built on top of it.
The check is static: every ``import`` statement of every module is read from
its syntax tree, including imports deferred into function bodies.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LIBRARY = ("core", "graph", "mapreduce", "generators", "utils")
APPLICATIONS = ("repro.experiments", "repro.serving")


def imported_modules(path: Path, root: Path = SRC):
    """``(line, module)`` for every module an import statement in ``path`` can
    name (for ``from a import b``, both ``a`` and ``a.b``)."""
    package = ".".join(path.relative_to(root).parts[:-1])
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def application_imports(path: Path, root: Path = SRC):
    return [
        f"{path.relative_to(root)}:{line} imports {module}"
        for line, module in imported_modules(path, root)
        if any(module == app or module.startswith(app + ".") for app in APPLICATIONS)
    ]


@pytest.mark.parametrize("layer", LIBRARY)
def test_library_layer_imports_no_application_layer(layer):
    offenders = [
        offence
        for path in sorted((SRC / "repro" / layer).rglob("*.py"))
        for offence in application_imports(path)
    ]
    assert not offenders, "\n".join(offenders)


def test_check_sees_deferred_relative_and_package_imports(tmp_path):
    probe = tmp_path / "repro" / "core" / "probe.py"
    probe.parent.mkdir(parents=True)
    probe.write_text(
        "import numpy\n"
        "from repro.graph import kernels\n"
        "def f():\n"
        "    from repro.experiments.ablations import x\n"
        "    from ..serving import service\n"
        "    from repro import experiments\n"
    )
    lines = {int(offence.split(":")[1].split()[0]) for offence in application_imports(probe, tmp_path)}
    assert lines == {4, 5, 6}
