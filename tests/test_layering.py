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
