"""Every name a shapxp module imports is read in that module, every
module-level constant is read somewhere in the package, and every import
is of the standard library or of the package itself.

No linter ships with the toolchain, so each module is parsed with ``ast``:
an imported name that no expression of the module reads fails the test.
A line marked ``# noqa: F401`` keeps its import, for names that are looked
up in the module from outside (the benchmark's tracer rebinds them there).
An UPPER_CASE name assigned at module level that no module of the package
reads, by name or as an attribute, fails too: a guard or tag left behind.
So does a module-level function or class whose name starts with ``_``: a
private helper that only tests call.
The package declares no dependencies, so an absolute import whose top-level
name is not in ``sys.stdlib_module_names`` fails as well.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "shapxp"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
ALL_MODULES = sorted(path.name for path in SRC.glob("*.py"))


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


def names_read(sources: dict[str, str]) -> set[str]:
    """Every name some source reads, by name or as an attribute."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_constants(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each module-level UPPER_CASE assignment that
    no source reads."""
    assigned = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            assigned += [(module, node.lineno, t.id) for t in targets
                         if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)]
    read = names_read(sources)
    return [entry for entry in assigned if entry[2] not in read]


def test_the_checker_finds_an_unread_constant():
    sources = {"a.py": "LIMIT = 24\nUSED: int = 2\n__all__ = []\nlower = 1\n",
               "b.py": "from .a import LIMIT, USED\nprint(USED)\n",
               "c.py": "import a\nTAG = 'x'\nprint(a.TAG)\n"}
    assert unread_constants(sources) == [("a.py", 1, "LIMIT")]


def test_every_constant_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_constants(sources) == []


def unread_private_definitions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each module-level function or class whose
    name starts with ``_`` and that no source reads."""
    defined = [(module, node.lineno, node.name)
               for module, source in sources.items() for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] == "_"]
    read = names_read(sources)
    return [entry for entry in defined if entry[2] not in read]


def test_the_checker_finds_an_unread_private_definition():
    sources = {"a.py": ("def _helper():\n    pass\n"
                        "class _Kept:\n    pass\n"
                        "def _walked():\n    pass\n"
                        "def public():\n    return _Kept()\n"),
               "b.py": "from . import a\nclass _Orphan:\n    pass\na._walked()\n"}
    assert unread_private_definitions(sources) == [("a.py", 1, "_helper"),
                                                   ("b.py", 2, "_Orphan")]


def test_every_private_definition_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_definitions(sources) == []


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import from outside the standard
    library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, module) for module in modules
                  if module.partition(".")[0] not in sys.stdlib_module_names]
    return sorted(found)


def test_the_checker_finds_a_foreign_import():
    source = ("from __future__ import annotations\n"
              "import numpy\n"
              "import os.path, scipy.sparse\n"
              "from . import cgt\n"
              "from .models import predict\n"
              "from numpy.linalg import norm\n"
              "from collections import Counter\n"
              "def f():\n"
              "    import numpy as np\n")
    assert foreign_imports(source) == [(2, "numpy"), (3, "scipy.sparse"),
                                       (6, "numpy.linalg"), (9, "numpy")]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_import_is_of_the_standard_library_or_the_package(module):
    assert foreign_imports((SRC / module).read_text()) == []
