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

Reordering and renaming a discrete domain's values, the same way in the
model, the instance and the sample, changes no report but for the values
it prints: the instance point. The table entries keep their order, which
is no longer the slot order, so the tables load through the loader's
offset route.

Reordering a sample's rows changes no agnostic result, and repeating every
row twice changes only the counts of rows: an AXp's sample support and the
universe's size double.
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


def report(capsys, path, instance, delta, command, sample=None):
    argv = [*command, "--model", str(path), "--instance=" + ",".join(map(str, instance)),
            "--output", "json"]
    if delta is not None:
        argv += ["--delta", str(delta)]
    if sample is not None:
        argv += ["--agnostic", "--sample", str(sample)]
    assert run_cli(argv) == 0
    return json.loads(capsys.readouterr().out)


def results(capsys, path, instance, delta, command):
    return report(capsys, path, instance, delta, command)["results"]


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


AGNOSTIC = [command for command in COMMANDS if command[-1] != "expected"] + [["axp"], ["cxp"]]


def fresh_values(rng, k, n):
    """n distinct new spellings for feature k's values: other numbers
    (integers and fractions, in their printed form), labels, or both."""
    numbers = list({F(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7))) for _ in range(4 * n)})
    labels = [f"f{k}v{i}" for i in range(n)]
    pool = [numbers, labels, numbers[:n // 2] + labels][k % 3]
    return [GEN["rat"](x) if isinstance(x, F) else x for x in rng.sample(pool, n)]


def renamed_doc(rng, doc):
    """The document with each domain's values renamed and put in another
    order, and per feature the map from each old value to its new one."""
    doc = json.loads(json.dumps(doc))
    names = []
    for k, feature in enumerate(doc["features"]):
        values = feature["domain"]["values"]
        order = list(values)
        while order == values:
            rng.shuffle(order)
        rename = dict(zip(values, fresh_values(rng, k, len(values))))
        feature["domain"]["values"] = [rename[x] for x in order]
        names.append(rename)
    if doc["kind"] == "tabular":
        for entry in doc["table"]:
            entry["point"] = [rename[x] for rename, x in zip(names, entry["point"])]
    else:
        for node in doc["nodes"]:
            for edge in node.get("edges", ()):
                edge["values"] = [names[node["feature"] - 1][x] for x in edge["values"]]
    return doc, names


def renamed_sample(text, names):
    """The sample's lines with each row's values renamed by ``names``."""
    header, *lines = text.splitlines()
    by_text = [{str(old): str(new) for old, new in rename.items()} for rename in names]
    rows = []
    for line in lines:
        *values, prediction = line.split(",")
        rows.append(",".join([*(rename[x] for rename, x in zip(by_text, values)), prediction]))
    return "\n".join([header, *rows]) + "\n"


def comparable(report, names=None):
    """The report without the file paths it names, its instance point read
    back through the inverse of ``names`` when given."""
    del report["model"]["path"]
    report["universe"].pop("sample", None)
    if names is not None:
        back = [{new: old for old, new in rename.items()} for rename in names]
        report["instance"]["point"] = [b[x] for b, x in zip(back, report["instance"]["point"])]
    return report


def discrete_inputs():
    """(name, document, instance, delta or None, sample text or None): bench
    tables and trees, and reg2 with its sample."""
    rng = random.Random(2)
    for k in range(8):
        m, arity = 2 + k % 5, 2 + k % 2
        doc, oracle = GEN["tabular"](rng, m, arity)
        yield f"table_m{m}_a{arity}", doc, GEN["discrete_instance"](rng, oracle), None, None
    for k in range(8):
        m = 4 + k % 5
        doc, oracle = GEN["tree"](rng, m, 3 + 2 * (k % 2), 1)
        delta = 1 if k % 2 else None
        yield f"tree_m{m}_{k}", doc, GEN["discrete_instance"](rng, oracle), delta, None
    yield ("reg2", json.loads((FIXTURES / "reg2.json").read_text()), (0, 1), None,
           (FIXTURES / "reg2_sample.csv").read_text())


def test_discrete_domain_values_reordered_and_renamed(tmp_path, capsys):
    rng = random.Random(322)
    checked = 0
    for name, doc, instance, delta, sample in discrete_inputs():
        new_doc, names = renamed_doc(rng, doc)
        new_instance = [rename[x] for rename, x in zip(names, instance)]
        before, after = tmp_path / f"{name}.json", tmp_path / f"{name}_renamed.json"
        before.write_text(json.dumps(doc))
        after.write_text(json.dumps(new_doc))
        runs = [(command, None, None) for command in [*COMMANDS, ["axp"], ["cxp"]]]
        if sample is not None:
            old_sample, new_sample = tmp_path / f"{name}.csv", tmp_path / f"{name}_renamed.csv"
            old_sample.write_text(sample)
            new_sample.write_text(renamed_sample(sample, names))
            runs += [(command, old_sample, new_sample) for command in AGNOSTIC]
        for command, old_sample, new_sample in runs:
            old = report(capsys, before, instance, delta, command, old_sample)
            new = report(capsys, after, new_instance, delta, command, new_sample)
            assert comparable(new, names) == comparable(old), (name, command)
            checked += 1
    assert checked == 17 * 7 + 6


def sample_inputs():
    """(name, document, instance, delta or None, sample text): reg2 with
    its sample, and seeded samples of bench trees."""
    yield ("reg2", json.loads((FIXTURES / "reg2.json").read_text()), (0, 1), None,
           (FIXTURES / "reg2_sample.csv").read_text())
    rng = random.Random(4)
    for m in (6, 8, 10):
        doc, oracle = GEN["tree"](rng, m, 5, 1)
        instance = GEN["discrete_instance"](rng, oracle)
        text = GEN["sample_csv"](rng, oracle, rng.randint(200, 500), instance)
        yield f"tree_m{m}", doc, instance, 1 if m == 8 else None, text


def test_sample_rows_reordered_or_repeated(tmp_path, capsys):
    rng = random.Random(44)
    checked = 0
    for name, doc, instance, delta, text in sample_inputs():
        model = tmp_path / f"{name}.json"
        model.write_text(json.dumps(doc))
        header, *lines = text.splitlines()
        shuffled = rng.sample(lines, len(lines))
        samples = {}
        for kind, rows in (("rows", lines), ("shuffled", shuffled),
                           ("twice", [line for line in lines for _ in (0, 1)])):
            samples[kind] = tmp_path / f"{name}_{kind}.csv"
            samples[kind].write_text("\n".join([header, *rows]) + "\n")
        for command in AGNOSTIC:
            old, new, twice = (report(capsys, model, instance, delta, command, samples[kind])
                               for kind in ("rows", "shuffled", "twice"))
            assert json.dumps(new["results"]) == json.dumps(old["results"]), (name, command)
            assert twice["universe"]["rows"] == 2 * old["universe"]["rows"] == 2 * len(lines)
            if command == ["axp"]:
                old["results"]["sample_support"] *= 2
            assert twice["results"] == old["results"], (name, command)
            checked += 1
    assert checked == 4 * 6
