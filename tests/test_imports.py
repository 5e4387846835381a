"""Every name a shapxp module imports is read in that module.

No linter ships with the toolchain, so each module is parsed with ``ast``:
an imported name that no expression of the module reads fails the test.
A line marked ``# noqa: F401`` keeps its import, for names that are looked
up in the module from outside (the benchmark's tracer rebinds them there).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "shapxp"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_checker_finds_an_orphaned_import():
    source = ("from math import lcm, prod\n"
              "from .models import (\n"
              "    POINT_GUARD,\n"
              "    predict,  # noqa: F401\n"
              ")\n"
              "import os.path\n"
              "lcm(2, 3)\n")
    assert unused_imports(source) == [(1, "prod"), (3, "POINT_GUARD"), (6, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unused_imports((SRC / module).read_text()) == []
