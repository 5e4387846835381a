"""Metamorphic relations: two CLI runs on documents related by a known
transformation must give related results, at widths no enumerating oracle
reaches.

A positive affine map of the outputs, y -> a*y + b with a > 0, applied to
the document (table values and ``default``, tree leaves, a box cell's
affine a0 -> a*a0 + b and a_j -> a*a_j) together with delta -> a*delta,
keeps which outputs are similar. So the sufficiency game, relevancy and
both kinds of explanation are unchanged, and the expected-value scores
scale by a while their compliance and rankings stay as they were. With
a = 1/3 integer outputs become fractions, which moves a table's expected
values off their integer route.
"""

import json
import random
import runpy
from fractions import Fraction as F

import pytest

from shapxp.cli import run_cli
from conftest import FIXTURES

GEN = runpy.run_path(str(FIXTURES.parent.parent / "bench" / "gen.py"))
MAPS = [(F(2), F(0)), (F(1, 3), F(-5, 2))]
COMMANDS = [["relevancy"], ["enumerate", "--kind", "axp"], ["enumerate", "--kind", "cxp"],
            ["shap", "--game", "waxp"], ["shap", "--game", "expected"]]


def mapped_doc(doc, a, b):
    """The document whose every output y reads a*y + b."""
    def y(v):
        return GEN["rat"](a * F(v) + b)
    doc = json.loads(json.dumps(doc))
    if doc["kind"] == "tabular":
        for entry in doc["table"]:
            entry["value"] = y(entry["value"])
        if "default" in doc:
            doc["default"] = y(doc["default"])
    elif doc["kind"] == "tree":
        for node in doc["nodes"]:
            if "value" in node:
                node["value"] = y(node["value"])
    else:
        for cell in doc["cells"]:
            a0, *coefficients = cell["affine"]
            cell["affine"] = [y(a0), *(GEN["rat"](a * F(c)) for c in coefficients)]
    return doc


def inputs():
    """(name, document, instance, delta or None): bench tables, half of
    them with a ``default``, and trees under class equality, and 16-cell
    kd box layouts at delta 1/3."""
    rng = random.Random(32)
    for m in range(2, 7):
        for arity in (2, 3):
            doc, oracle = GEN["tabular"](rng, m, arity)
            if arity == 3:  # the commonest value as the default
                values = [entry["value"] for entry in doc["table"]]
                doc["default"] = max(values, key=values.count)
                doc["table"] = [e for e in doc["table"] if e["value"] != doc["default"]]
            yield f"table_m{m}_a{arity}", doc, GEN["discrete_instance"](rng, oracle), None
    for m in range(4, 9):
        for depth in (3, 5):
            doc, oracle = GEN["tree"](rng, m, depth, 1)
            yield f"tree_m{m}_d{depth}", doc, GEN["discrete_instance"](rng, oracle), None
    for m in (2, 3):
        for k in range(6):
            doc, _ = GEN["box_kd"](rng, m, 16, 4)
            yield f"kd_m{m}_{k}", doc, GEN["box_instance"](rng, m, 4), F(1, 3)


def results(capsys, path, instance, delta, command):
    argv = [*command, "--model", str(path), "--instance", ",".join(map(str, instance)),
            "--output", "json"]
    if delta is not None:
        argv += ["--delta", str(delta)]
    assert run_cli(argv) == 0
    return json.loads(capsys.readouterr().out)["results"]


def scaled(node, a):
    """A JSON result with each score and sum read as a Fraction times a."""
    if isinstance(node, dict):
        return {k: a * F(v) if k in ("score", "sum") else scaled(v, a) for k, v in node.items()}
    if isinstance(node, list):
        return [scaled(v, a) for v in node]
    return node


@pytest.mark.parametrize("a,b", MAPS, ids=["2y", "y/3-5/2"])
def test_a_positive_affine_output_map(tmp_path, capsys, a, b):
    checked = 0
    for name, doc, instance, delta in inputs():
        before, after = tmp_path / f"{name}.json", tmp_path / f"{name}_mapped.json"
        before.write_text(json.dumps(doc))
        after.write_text(json.dumps(mapped_doc(doc, a, b)))
        for command in COMMANDS:
            old = results(capsys, before, instance, delta, command)
            new = results(capsys, after, instance, None if delta is None else a * delta, command)
            if command[-1] == "expected":
                assert scaled(new, 1) == scaled(old, a), (name, command)
            else:
                assert new == old, (name, command)
            checked += 1
    assert checked == 160
