"""The README's examples, run from the repository root as written there.

The command-line example's report must match line for line, but for its
timing; each line of the Library example that ends in a ``# (...)``
comment must evaluate to the value the comment shows.
"""

import ast
import re
from pathlib import Path

import pytest

from shapxp.cli import run_cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def block(language, starts):
    found = [text for lang, text in BLOCKS if lang == language and text.startswith(starts)]
    assert len(found) == 1, f"the README has {len(found)} {language or 'plain'} blocks at {starts!r}"
    return found[0]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_the_command_line_example_prints_its_report(capsys):
    command, *expected = block("", "$ shapxp ").splitlines()
    assert run_cli(command.split()[2:]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if not line.startswith("time:")] == \
        [line for line in expected if not line.startswith("time:")]
    assert len(printed) == len(expected)


def test_the_library_example_gives_its_commented_values():
    text = block("python", "from fractions import Fraction")
    lines, namespace, checked = text.splitlines(), {}, 0
    for statement in ast.parse(text).body:
        comment = re.search(r"#\s*(\(.*\))\s*$", lines[statement.end_lineno - 1])
        if comment and isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
            assert value == eval(comment.group(1), namespace), ast.unparse(statement)
            checked += 1
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    assert checked == text.count("# (")
