"""Module layering: scoring, allocation, eviction and traces never import the toy model."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kvalloc"

# The package's re-exports and the CLI's --toy flag are the toy model's only importers.
TOY_IMPORTERS = {"__init__.py", "cli.py"}


def toymodel_import_lines(source: str) -> list[int]:
    """Line numbers of the imports of ``kvalloc.toymodel``, in any form, in a module of the package."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # The package is flat, so a relative import is relative to kvalloc.
            package = "kvalloc" if node.level else ""
            base = ".".join(filter(None, [package, node.module]))
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m == "kvalloc.toymodel" or m.startswith("kvalloc.toymodel.") for m in modules):
            lines.append(node.lineno)
    return lines


def test_only_the_package_and_cli_import_the_toy_model():
    found = {path.name: toymodel_import_lines(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert all(found[name] for name in TOY_IMPORTERS)
    assert {name: lines for name, lines in found.items() if lines and name not in TOY_IMPORTERS} == {}


@pytest.mark.parametrize(
    "line",
    [
        "from .toymodel import PrefillResult",
        "from . import toymodel",
        "from . import metrics, toymodel",
        "import kvalloc.toymodel",
        "import kvalloc.toymodel as tm",
        "from kvalloc.toymodel import mini_prefill",
        "from kvalloc import toymodel",
    ],
)
def test_every_import_form_is_seen(line):
    assert toymodel_import_lines(line) == [1]


@pytest.mark.parametrize("line", ["from .trace import AttentionTrace", "from . import trace", "import toymodel_x"])
def test_other_imports_are_not(line):
    assert toymodel_import_lines(line) == []


# Scores reach the allocator through metrics, and metrics reads them through ScoreVector:
# neither reaches past another module's public names.
PUBLIC_ONLY = ("metrics.py", "allocator.py")


def private_names_used(source: str) -> list[str]:
    """Underscore-prefixed names a module of the package imports from, or reads off, another of its modules."""
    modules, names = set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "kvalloc"):
            if node.module in (None, "kvalloc"):  # "from . import metrics": the names are modules
                modules.update(alias.asname or alias.name for alias in node.names)
            names += [alias.name for alias in node.names if alias.name.startswith("_")]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names += [node.attr] if node.attr.startswith("_") else []
    return names


@pytest.mark.parametrize("name", PUBLIC_ONLY)
def test_metrics_and_allocator_use_no_private_name_of_another_module(name):
    assert private_names_used((SRC / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .attnproc import ScoreVector, _retention_curve",
        "from kvalloc.attnproc import _retention_curve",
        "from . import attnproc\nattnproc._retention_curve(s)",
    ],
)
def test_every_private_use_is_seen(source):
    assert private_names_used(source) == ["_retention_curve"]


@pytest.mark.parametrize("source", ["from .attnproc import ScoreVector", "import numpy as np\nnp._core", "x._y"])
def test_public_uses_are_not(source):
    assert private_names_used(source) == []


# Library calls return data: the CLI is the one module that writes to the terminal.
TERMINAL_WRITERS = {"cli.py"}
STREAMS = {"stdout", "stderr"}


def terminal_use_lines(source: str) -> list[int]:
    """Line numbers where a module names ``sys.stdout`` or ``sys.stderr``, in any form, or calls ``print``."""
    tree = ast.parse(source)
    imports = [alias for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    sys_names = {alias.asname or alias.name for alias in imports if alias.name == "sys"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "sys":
            named = any(alias.name in STREAMS for alias in node.names)
        elif isinstance(node, ast.Attribute):
            named = node.attr in STREAMS and isinstance(node.value, ast.Name) and node.value.id in sys_names
        else:
            named = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
        lines += [node.lineno] if named else []
    return sorted(lines)


def test_only_the_cli_writes_to_the_terminal():
    found = {path.name: terminal_use_lines(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert all(found[name] for name in TERMINAL_WRITERS)
    assert {name: lines for name, lines in found.items() if lines and name not in TERMINAL_WRITERS} == {}


@pytest.mark.parametrize(
    "source",
    [
        "import sys\nsys.stdout.write(line)",
        "import sys\nprint(line, file=sys.stderr)",
        "import sys as s\ns.stderr.flush()",
        "from sys import stdout",
        "from sys import argv, stderr as err",
        "import os, sys\nstream = sys.stdout",
        "x = 1\nprint(x)",
    ],
)
def test_every_terminal_use_is_seen(source):
    assert set(terminal_use_lines(source)) == {source.count("\n") + 1}


@pytest.mark.parametrize(
    "source",
    ["import sys\nsys.maxsize", "fh.write(line)", "report.print(x)", "stdout = io.StringIO()", "proc.stdout.read()"],
)
def test_other_names_are_not(source):
    assert terminal_use_lines(source) == []
