"""Every name a shapxp module imports is read in that module, every
module-level constant is read somewhere in the package, and every import
is of the standard library or of the package itself.

No linter ships with the toolchain, so each module is parsed with ``ast``:
an imported name that no expression of the module reads fails the test.
A line marked ``# noqa: F401`` keeps its import, for names that are looked
up in the module from outside (the benchmark's tracer rebinds them there);
each such import must name a lookup site of ``bench/tracing.py``.
An UPPER_CASE name assigned at module level that no module of the package
reads, by name or as an attribute, fails too: a guard or tag left behind.
So does a module-level function or class whose name starts with ``_``: a
private helper that only tests call. So does a public one that no module
reads, ``__init__.py`` does not export and no lookup site of
``bench/tracing.py`` names: a function that no run and no user reaches.
So does a method or property (dunders aside) that no module reads as an
attribute, names to ``getattr`` and its kin or names in a dotted-path
string: a mechanism that no run needs. A local variable or a dict key
that shares its name does not keep it.
No module but ``similarity.py`` reads ``prediction`` or ``delta`` off a
``dissimilar``: the band those give belongs to ``Dissimilar.band``.
No module but ``cli.py`` imports ``gc`` or calls it: pausing the cyclic
collector for a run is ``run_cli``'s policy alone.
The package declares no dependencies, so an absolute import whose top-level
name is not in ``sys.stdlib_module_names`` fails as well. Nor does it import
``dataclasses``, ``inspect`` or ``typing``, which would cost every process
that imports it more than its own classes take to build (its records are
``collections.namedtuple`` classes and its annotations name
``collections.abc``); a subprocess confirms that importing the CLI loads
none of them.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "shapxp"
TRACING = SRC.parent.parent / "bench" / "tracing.py"
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


def tracer_sites(source: str) -> set[str]:
    """Every "shapxp.<module>:<name>" lookup site that a source names."""
    return {node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"shapxp\.\w+:[\w.]+", node.value)}


def untraced_kept_imports(module: str, source: str, sites: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each ``# noqa: F401`` import of ``module`` whose
    name is no site "shapxp.<module>:<name>"."""
    lines = source.splitlines()
    return sorted((alias.lineno, alias.asname or alias.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
                  if "# noqa: F401" in lines[alias.lineno - 1]
                  and f"shapxp.{module}:{alias.asname or alias.name}" not in sites)


def test_the_checker_finds_a_kept_import_the_tracer_does_not_look_up():
    tracer = ('SPANS = (("a", ("shapxp.cli:load_model",)),)\n'
              'LEAVES = (("b", ("shapxp.models:predict", "shapxp.games:Game.value")),)\n')
    source = ("from .models import (\n"
              "    predict,  # noqa: F401\n"
              "    similar,  # noqa: F401\n"
              ")\n"
              "from .cli import load_model  # noqa: F401\n")
    sites = tracer_sites(tracer)
    assert sites == {"shapxp.cli:load_model", "shapxp.models:predict",
                     "shapxp.games:Game.value"}
    assert untraced_kept_imports("models", source, sites) == [(3, "similar"),
                                                              (5, "load_model")]


@pytest.mark.parametrize("module", MODULES)
def test_every_kept_import_is_a_tracer_site(module):
    sites = tracer_sites(TRACING.read_text())
    assert untraced_kept_imports(module[:-3], (SRC / module).read_text(), sites) == [], \
        "the tracer no longer looks these names up here: delete their imports"


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


def exported_names(source: str) -> set[str]:
    """Every name an ``__init__`` source imports, which the package exports."""
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def orphaned_public_definitions(sources: dict[str, str], exported: set[str],
                                sites: set[str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each module-level function or class whose
    name is public and that no source reads, the package does not export
    and no tracer site "shapxp.<module>:<name>[.<attr>]" looks up."""
    kept = names_read(sources) | exported
    traced = {(f"{module.rpartition('.')[2]}.py", path.partition(".")[0])
              for module, _, path in (site.partition(":") for site in sites)}
    return [(module, node.lineno, node.name)
            for module, source in sources.items() for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"
            and node.name not in kept and (module, node.name) not in traced]


def test_the_checker_finds_an_orphaned_public_definition():
    sources = {"__init__.py": "from .a import exported\n",
               "a.py": ("def exported():\n    pass\n"
                        "def orphan():\n    pass\n"
                        "def used():\n    pass\n"
                        "def traced():\n    pass\n"
                        "class Box:\n    def value(self):\n        return 0\n"
                        "class Orphan:\n    pass\n"
                        "def _private():\n    pass\n"),
               "b.py": ("from .a import orphan, used\n"
                        "def traced():\n    return used()\n")}
    exported = exported_names(sources["__init__.py"])
    sites = {"shapxp.a:traced", "shapxp.a:Box.value"}
    assert exported == {"exported"}
    assert orphaned_public_definitions(sources, exported, sites) == [
        ("a.py", 3, "orphan"), ("a.py", 12, "Orphan"), ("b.py", 2, "traced")]


def test_every_public_definition_is_read_exported_or_traced():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert orphaned_public_definitions(sources, exported_names(sources["__init__.py"]),
                                       tracer_sites(TRACING.read_text())) == []


# The callables that read an attribute named by a string argument.
BY_NAME = {"getattr", "hasattr", "setattr", "attrgetter", "methodcaller"}


def unread_methods(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, "Class.name") of each method or property, dunders
    aside, that no source reads as an attribute, names in a string argument
    of getattr, hasattr, setattr, attrgetter or methodcaller, or names in a
    string that spells a dotted path such as "shapxp.games:Game.value". A
    local variable or a dict key of the same name is no read."""
    defined = [(module, node.lineno, f"{cls.name}.{node.name}")
               for module, source in sources.items() for cls in ast.walk(ast.parse(source))
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not re.fullmatch(r"__\w+__", node.name)]
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in BY_NAME:
                read.update(part for arg in node.args if isinstance(arg, ast.Constant)
                            and isinstance(arg.value, str) for part in arg.value.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"\w+(?:[.:]\w+)+", node.value):
                read.update(re.split(r"[.:]", node.value))
    return [entry for entry in defined if entry[2].partition(".")[2] not in read]


def test_the_checker_finds_an_unread_method():
    sources = {"a.py": ("class Box:\n"
                        "    def __len__(self):\n        return 0\n"
                        "    @property\n    def size(self):\n        return 0\n"
                        "    def corners(self):\n        return []\n"
                        "    def cells(self):\n        return []\n"
                        "    def traced(self):\n        return []\n"
                        "    def unused(self):\n        '''Unlike Box.size and corners.'''\n"
                        "    def faces(self):\n        return []\n"
                        "    def edges(self):\n        return []\n"),
               "b.py": ("from operator import attrgetter\n"
                        "from .a import Box\n"
                        "SITE = 'shapxp.a:Box.traced'\n"
                        "print(Box().size, getattr(Box(), 'corners'), attrgetter('edges'))\n"
                        "class Grid:\n    def cells(self):\n        return Box().cells()\n"
                        "faces = len(Box())\n"
                        "print({'faces': faces})\n")}
    assert unread_methods(sources) == [("a.py", 13, "Box.unused"), ("a.py", 15, "Box.faces")]


def test_every_method_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_methods(sources) == []


def band_reads(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, attribute) of each read of ``prediction`` or ``delta``
    off a name or attribute ``dissimilar`` outside ``similarity.py``: the
    band prediction +- delta belongs to ``Dissimilar``, which gives it."""
    return [(module, node.lineno, node.attr)
            for module, source in sources.items() if module != "similarity.py"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ("prediction", "delta")
            and "dissimilar" in (getattr(node.value, "id", None),
                                 getattr(node.value, "attr", None))]


def test_the_checker_finds_a_band_read_outside_its_owner():
    sources = {"models.py": ("def leaves(dissimilar, problem):\n"
                             "    y0 = dissimilar.prediction\n"
                             "    return problem.dissimilar.delta, problem.similarity.delta\n"
                             "def other(instance, dissimilar):\n"
                             "    return instance.prediction, dissimilar.band(2), dissimilar(0)\n"),
               "similarity.py": ("class Dissimilar:\n"
                                 "    def band(self, dissimilar):\n"
                                 "        return dissimilar.delta, self.prediction\n")}
    assert band_reads(sources) == [("models.py", 2, "prediction"), ("models.py", 3, "delta")]


def test_only_similarity_reads_the_band():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert band_reads(sources) == []


def collector_uses(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, what) of each import of ``gc`` and each call of a
    ``gc`` function outside ``cli.py``: the collector policy of a run
    belongs to ``run_cli``."""
    found = []
    for module, source in sources.items():
        if module == "cli.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                found += [(module, node.lineno, alias.name) for alias in node.names
                          if alias.name == "gc"]
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.append((module, node.lineno, "gc"))
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) \
                    and getattr(node.func.value, "id", None) == "gc":
                found.append((module, node.lineno, f"gc.{node.func.attr}"))
    return sorted(found)


def test_the_checker_finds_a_collector_use_outside_the_cli():
    sources = {"cli.py": "import gc\ngc.disable()\n",
               "models.py": ("import gc, json\n"
                             "def load(text):\n"
                             "    gc.disable()\n"
                             "    return json.loads(text)\n"),
               "games.py": "from gc import freeze\nfreeze()\n",
               "cgt.py": "import gcd\nfrom .models import gc_free\ngc_free.collect()\n"}
    assert collector_uses(sources) == [("games.py", 1, "gc"), ("models.py", 1, "gc"),
                                       ("models.py", 3, "gc.disable")]


def test_only_the_cli_touches_the_collector():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert collector_uses(sources) == []


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return sorted(found)


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import from outside the standard
    library."""
    return [(line, module) for line, module in absolute_imports(source)
            if module.partition(".")[0] not in sys.stdlib_module_names]


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


SLOW_MODULES = {"dataclasses", "inspect", "typing"}


def slow_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each import of ``dataclasses``, ``inspect`` or
    ``typing``, or of a module inside them."""
    return [(line, module) for line, module in absolute_imports(source)
            if module.partition(".")[0] in SLOW_MODULES]


def test_the_checker_finds_a_slow_import():
    source = ("from __future__ import annotations\n"
              "from dataclasses import dataclass, field\n"
              "import inspect, json\n"
              "from .models import dataclasses\n"
              "import dataclasses_json\n"
              "def f():\n"
              "    from inspect import signature\n"
              "from typing import NamedTuple\n")
    assert slow_imports(source) == [(2, "dataclasses"), (3, "inspect"), (7, "inspect"),
                                    (8, "typing")]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_module_imports_a_slow_module(module):
    assert slow_imports((SRC / module).read_text()) == []


def test_importing_the_cli_loads_no_slow_module():
    # -S skips the site hooks, which may import any of them themselves.
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import shapxp.cli; "
              "print(sorted(set(sys.argv[2:]) & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", script, str(SRC.parent), *SLOW_MODULES],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
