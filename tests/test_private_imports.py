"""Module boundaries: no module under ``src/repro`` imports a ``_`` name
from another repro module.

A leading underscore marks a helper private to its module. A second
module that needs it should use, or get, a public name instead: a private
import ties two modules to one implementation detail.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for every ``_`` name ``source`` imports from repro,
    relative imports included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "repro":
                continue
            names = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names if a.name.split(".")[0] == "repro"
                     for part in a.name.split(".")]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.startswith("_")]
    return found


def test_no_private_imports_across_modules():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in private_imports(path.read_text())
    ]
    assert not offenders, offenders


def test_guard_flags_relative_and_absolute_forms():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from ..core.itraversal import _potential_bound, traverse\n"
        "from repro.bipartite.graph import _SMALL_IDS\n"
        "import repro.core._hidden\n"
        "from . import _sibling\n"
    )
    assert private_imports(source) == [
        (3, "_potential_bound"), (4, "_SMALL_IDS"), (5, "_hidden"), (6, "_sibling"),
    ]
