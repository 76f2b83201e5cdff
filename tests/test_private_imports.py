"""Module boundaries: no module under ``src/repro`` imports a ``_`` name
from another repro module, or a repro name under another name.

A leading underscore marks a helper private to its module. A second
module that needs it should use, or get, a public name instead: a private
import ties two modules to one implementation detail.

A repro name is imported under its own name: an ``as`` alias gives one
function two names, or one name two functions, and tests and tracers that
patch a module global by name then reach the wrong one.

Spark serves the paper's distributed future work only: ``pyspark`` is
imported by the frontier and partition enumerators and by the Spark graph
code they run on, and by no other module. The core peeling and component
modules import it inside their Spark functions only, so a process that
peels a core or runs the local engine does not load it.
"""
import ast
import os
import pathlib
import subprocess
import sys

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


def aliased_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, name, alias) for every repro name ``source`` imports under
    another name, relative imports included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "repro":
                continue
            aliases = node.names
        elif isinstance(node, ast.Import):
            aliases = [a for a in node.names if a.name.split(".")[0] == "repro"]
        else:
            continue
        found += [(node.lineno, a.name, a.asname) for a in aliases
                  if a.asname not in (None, a.name)]
    return found


def test_no_aliased_repro_imports():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {name} as {alias}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name, alias in aliased_imports(path.read_text())
    ]
    assert not offenders, offenders


def test_alias_guard_flags_relative_and_absolute_forms():
    source = (
        "import numpy as np\n"
        "from pyspark.sql import functions as F\n"
        "from .almost_sat import enum_local as enum_almost_sat, Anchor\n"
        "from repro.core.extend import extend_to_maximal as extend_to_maximal\n"
        "import repro.core.itraversal as itr\n"
        "from .. import core as c\n"
    )
    assert aliased_imports(source) == [
        (3, "enum_local", "enum_almost_sat"),
        (5, "repro.core.itraversal", "itr"),
        (6, "core", "c"),
    ]


# The modules that may import pyspark, as paths under src/repro.
SPARK_MODULES = ("distributed/*", "bipartite/core_decomp.py",
                 "bipartite/components.py", "bipartite/spark_graph.py")


def pyspark_imports(source: str) -> list[int]:
    """Lines of every import of pyspark in ``source``, function bodies
    included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] if node.level == 0 else []
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            continue
        if any(m.split(".")[0] == "pyspark" for m in modules):
            found.append(node.lineno)
    return found


def test_pyspark_only_in_spark_modules():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if not any(path.relative_to(SRC).match(m) for m in SPARK_MODULES)
        for line in pyspark_imports(path.read_text())
    ]
    assert not offenders, offenders


def test_pyspark_guard_flags_nested_and_absolute_forms():
    source = (
        "import pyspark\n"
        "from pyspark.sql import DataFrame\n"
        "from .pyspark import helper\n"
        "import pysparklike\n"
        "def f():\n"
        "    from pyspark.sql import functions as F\n"
    )
    assert pyspark_imports(source) == [1, 2, 6]


def test_local_modules_load_no_pyspark():
    """Importing the engine, the local core peeling, the local components
    and the table code leaves ``pyspark`` unloaded: it costs about 11 MB
    of memory in every process that imports it."""
    code = ("import sys, repro.core.itraversal, repro.bipartite.core_decomp, "
            "repro.bipartite.components, repro.experiments.tables; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pyspark'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                         capture_output=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
