"""A pinned report corpus: the CLI's every subcommand on seeded generated
models, instances and samples, and on mutated files that take each
loader's error paths.

``generate`` writes small tables, trees and box models (m <= 6), drawn with
tests/randmodels.py and tests/boxmodels.py, and their samples, under fixed
relative names, and returns each input's invocations; two kd layouts of
about 200 cells (m = 3 and 4) run the box commands at instances on cut
lines and at the domain top. ``report_digest``
replays them from the directory that holds the files (reports and errors
quote paths as given) and digests each input's (argv, exit code, stdout,
stderr) records; a table report's ``time:`` line is dropped.
tests/report_corpus.json pins those digests, and one more over the
generated files' bytes, so that a generator change is told apart from an
output change.

Re-pin after a change that alters reports::

    PYTHONPATH=src python tests/report_corpus.py

rewrites tests/report_corpus.json and prints each digest that changed.
The module needs no pytest, so any installed Python that the package
supports can check the pins, for example::

    PYENV_VERSION=3.10.13 PYTHONPATH=src python tests/report_corpus.py
    git diff --exit-code tests/report_corpus.json
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from shapxp import TabularModel, TreeModel, predict
from shapxp.cli import run_cli
from shapxp.models import labelled_points, tabulate

from boxmodels import HI, LO, random_grid_model, random_kd_model
from randmodels import random_instance, random_table, random_tree_model

PINS = Path(__file__).with_name("report_corpus.json")
SEED = 23
DELIMITERS = (",", "\t", ";", "|")
EIGHTHS = [Fraction(k, 8) for k in range(-8, 9)]  # box coordinates, every cut among them


def token(x):
    """A value as a model file writes it: an integer as a JSON number,
    another rational as "p/q", a label as itself."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def document(model) -> dict:
    """The model's JSON document."""
    def domain(d):
        if hasattr(d, "values"):
            return {"type": "discrete", "values": list(map(token, d.values))}
        return {"type": "interval", "lo": token(d.lo), "hi": token(d.hi)}
    doc = {"version": 1, "value_kind": model.value_kind,
           "features": [{"id": f.id, "name": f.name, "domain": domain(f.domain)}
                        for f in model.space.features]}
    if isinstance(model, TabularModel):
        doc.update(kind="tabular", table=[{"point": list(map(token, p)), "value": token(y)}
                                          for p, y in labelled_points(model)])
    elif isinstance(model, TreeModel):
        doc.update(kind="tree", root=model.root, nodes=[
            {"id": nid, "value": token(n.value)} if not hasattr(n, "edges") else
            {"id": nid, "feature": n.feature,
             "edges": [{"values": list(map(token, values)), "child": child}
                       for values, child in n.edges]}
            for nid, n in model.nodes.items()])
    else:
        doc.update(kind="box_piecewise", cells=[
            {"box": [[token(lo), token(hi)] for lo, hi in c.box],
             "affine": [token(c.intercept), *map(token, c.coeffs)]} for c in model.cells])
    return doc


def field(x, rng) -> str:
    """A value as a sample or --instance field, a rational sometimes
    respelled ("1.0", "2/2") or padded with spaces."""
    if not isinstance(x, (int, Fraction)):
        return x
    x = Fraction(x)
    spellings = [str(x), f"{2 * x.numerator}/{2 * x.denominator}", f" {x} "]
    if x.denominator in (1, 2, 4, 8):
        spellings.append(repr(float(x)))
    return rng.choice(spellings)


def sample_lines(model, rng, predictions: bool) -> tuple[str, list[str]]:
    """A delimiter, and a header and rows drawn with repeats: a discrete
    model's labelled points, or box points on the eighths lattice, which
    holds every cut."""
    space = model.space
    if space.all_discrete():
        pool = list(labelled_points(model))
    else:
        pool = [(p, predict(model, p)) for p in
                (tuple(rng.choice(EIGHTHS) for _ in range(space.m)) for _ in range(12))]
    delim = rng.choice(DELIMITERS)
    names = [f.name for f in space.features] + ["prediction"] * predictions
    rows = [rng.choice(pool) for _ in range(rng.randint(len(pool) // 2 + 1, 2 * len(pool)))]
    return delim, [delim.join(names)] + [delim.join(field(x, rng) for x in (*p, y)[:len(names)])
                                         for p, y in rows]


def valid_models(rng):
    yield "table_mixed", TabularModel(*random_table(rng, max_m=4))
    yield "table_labels", TabularModel(*random_table(rng, max_m=3, categorical=True))
    yield "table_m6", tabulate(random_tree_model(rng, 6, max_depth=6, max_domain=2))
    yield "tree_mixed", random_tree_model(rng, 4, mixed=True)
    yield "tree_labels", random_tree_model(rng, 3, categorical=True)
    yield "tree_m5", random_tree_model(rng, 5, max_depth=5, max_domain=3)
    yield "box_grid", random_grid_model(rng, 2)
    yield "box_kd3", random_kd_model(rng, 3, 8)
    yield "box_kd4", random_kd_model(rng, 4, 6)


def large_boxes(rng):
    """(name, model, instances): kd layouts of 200 cells at m = 3 and 4. The
    first instance has its first coordinate on a cut line of the layout,
    its last at the domain top and the others off the lattice; the second
    is at the top on every axis but one, which lies on a cut line."""
    for m in (3, 4):
        model = random_kd_model(rng, m, 200)
        cuts = [sorted({x for c in model.cells for x in c.box[j]} - {LO, HI}) for j in range(m)]
        first = (rng.choice(cuts[0]), *(Fraction(-5, 7) + j * Fraction(1, 3)
                                        for j in range(m - 2)), HI)
        on = rng.randrange(m)
        second = tuple(rng.choice(cuts[j]) if j == on else HI for j in range(m))
        yield f"box_kd{m}_200", model, (first, second)


def large_box_invocations(name, instances) -> list[list[str]]:
    """validate, both shap games, relevancy, AXp enumeration and compare, each
    instance in turn, in JSON."""
    base = ["--model", f"{name}.json", "--output", "json"]
    runs = [["validate", *base]]
    for one, two in (instances, instances[::-1]):
        args = [*base, "--instance=" + ",".join(map(str, one))]
        banded = [*args, "--delta", "1/2"]
        runs += [["shap", *args, "--game", "expected"], ["shap", *banded, "--game", "waxp"],
                 ["relevancy", *banded], ["enumerate", *banded, "--kind", "axp"],
                 ["compare", *banded, "--instance=" + ",".join(map(str, two))]]
    return runs


def invocations(name, model, rng) -> list[list[str]]:
    """Every subcommand that applies, each in JSON and as a table, with and
    without a sample universe, and on a numeric model with and without
    --delta; then a few refused invocations."""
    space, boxed = model.space, not model.space.all_discrete()

    def point():
        if boxed:
            return ",".join(field(rng.choice(EIGHTHS), rng) for _ in range(space.m))
        return ",".join(field(x, rng) for x in random_instance(rng, model).point)

    base, sample = ["--model", f"{name}.json"], f"{name}.csv"
    # "--instance=": a point may start with "-", which argparse reads as a flag.
    one, two = [f"--instance={point()}"], [f"--instance={point()}"]
    ids = ",".join(map(str, reversed(space.ids)))
    deltas = [["--delta", "1/2"]] if boxed else \
        [[], ["--delta", "1/3"]] if model.value_kind == "numeric" else [[]]
    runs = [["validate", *base], ["validate", *base, "--sample", sample]]
    agnostic = ["--agnostic", "--sample", sample]
    for delta in deltas:
        for universe in ([], agnostic):
            args = [*base, *one, *delta, *universe]
            runs += [["relevancy", *args], ["axp", *args], ["axp", *args, "--from", ids],
                     ["cxp", *args], ["cxp", *args, "--from", ids],
                     ["enumerate", *args, "--kind", "axp"], ["enumerate", *args, "--kind", "cxp"],
                     ["shap", *args, "--game", "waxp"],
                     ["shap", *args, "--game", "waxp", "--method", "cgt", "--epsilon", "1/4",
                      "--seed", "7"]]
        # The expected-value game is defined over the space only.
        args = [*base, *one, *delta]
        runs += [["shap", *args, "--game", "expected"],
                 ["shap", *args, "--game", "expected", "--method", "cgt", "--epsilon", "1",
                  "--alpha", "1/10", "--seed", "11"],
                 ["compare", *args, *two],
                 ["compare", *args, *two, "--persistence", "1/2", "--depth", "3", "--abs"]]
    runs = [[*argv, "--output", output] for argv in runs for output in ("json", "table")]
    args = [*base, *deltas[-1]]
    outside = ",".join(["2" if boxed else "zz"] * space.m)
    return runs + [[*argv, "--output", "json"] for argv in (
        ["relevancy", *args], ["axp", *args, *one, *two],
        ["relevancy", *args, "--instance=" + ",".join(["0"] * (space.m + 1))],
        ["relevancy", *args, f"--instance={outside}"],
        ["relevancy", *args, "--instance=" + ",".join(["1/0"] * space.m)],
        ["relevancy", *base, *one, "--delta", "x"],
        ["axp", *args, *one, "--from", "0"],
        ["relevancy", *args, *one, "--sample", sample],
        ["relevancy", *args, *one, "--agnostic"],
        ["relevancy", *args, *one, "--agnostic", "--sample", "missing.csv"],
        ["shap", *args, *one, "--game", "waxp", "--method", "cgt", "--epsilon", "0"],
        ["shap", *args, *one, "--game", "waxp", "--method", "cgt", "--alpha", "1"],
        ["relevancy", *base, *one], ["compare", *args, *one, *agnostic])]


def mutated(doc, change) -> dict:
    doc = copy.deepcopy(doc)
    change(doc)
    return doc


def internal(doc) -> list[dict]:
    return [n for n in doc["nodes"] if "feature" in n]


def leaves(doc) -> list[dict]:
    return [n for n in doc["nodes"] if "value" in n]


def tested_twice(doc):
    """A node below the root re-tests the root's feature."""
    nodes = {n["id"]: n for n in doc["nodes"]}
    root = nodes[doc["root"]]
    child = next(nodes[e["child"]] for e in root["edges"] if "feature" in nodes[e["child"]])
    child["feature"] = root["feature"]


# Each mutation names the valid model whose document it changes.
MODEL_ERRORS = {
    "doc_version": ("table_mixed", lambda d: d.update(version=2)),
    "doc_value_kind": ("table_mixed", lambda d: d.update(value_kind="ordinal")),
    "doc_kind": ("table_mixed", lambda d: d.update(kind="forest")),
    "doc_no_features": ("table_mixed", lambda d: d.update(features=[])),
    "doc_feature_not_object": ("table_mixed", lambda d: d["features"].__setitem__(0, 3)),
    "doc_feature_id": ("table_mixed", lambda d: d["features"][0].update(id=True)),
    "doc_feature_name": ("table_mixed", lambda d: d["features"][0].update(name=5)),
    "doc_domain_not_object": ("table_mixed", lambda d: d["features"][0].update(domain=[])),
    "doc_values_not_list": ("table_mixed",
                            lambda d: d["features"][0]["domain"].update(values="ab")),
    "doc_domain_type": ("table_mixed", lambda d: d["features"][0]["domain"].update(type="set")),
    "doc_domain_repeats": ("table_mixed", lambda d: d["features"][0]["domain"]["values"].append(
        d["features"][0]["domain"]["values"][0])),
    "doc_domain_empty": ("table_mixed", lambda d: d["features"][0]["domain"].update(values=[])),
    "doc_interval_empty": ("box_grid", lambda d: d["features"][1]["domain"].update(lo=1)),
    "table_not_list": ("table_mixed", lambda d: d.update(table={})),
    "table_entry_not_object": ("table_mixed", lambda d: d["table"].__setitem__(1, 5)),
    "table_point_length": ("table_m6", lambda d: d["table"][3]["point"].pop()),
    "table_point_outside": ("table_m6", lambda d: d["table"][-1]["point"].__setitem__(5, 7)),
    "table_point_bool": ("table_m6", lambda d: d["table"][9]["point"].__setitem__(0, True)),
    "table_point_unhashable": ("table_m6",
                               lambda d: d["table"][2]["point"].__setitem__(1, [0])),
    "table_point_token": ("table_mixed", lambda d: d["table"][-1]["point"].__setitem__(0, "1/0")),
    "table_duplicate": ("table_m6",
                        lambda d: d["table"][-1].update(point=d["table"][40]["point"])),
    "table_not_total": ("table_m6", lambda d: d["table"].pop(17)),
    "table_default": ("table_m6", lambda d: d.update(default=0, table=d["table"][::3])),
    "table_bad_value": ("table_mixed", lambda d: d["table"][1].update(value="x")),
    "table_no_value": ("table_mixed", lambda d: d["table"][2].pop("value")),
    "table_label_value": ("table_labels", lambda d: d["table"][0].update(value=3)),
    "table_long_literal": ("table_mixed", lambda d: d["table"][0].update(value="1e5000")),
    "table_constant": ("table_m6", lambda d: [e.update(value=1) for e in d["table"]]),
    "tree_no_root": ("tree_m5", lambda d: d.pop("root")),
    "tree_node_not_object": ("tree_m5", lambda d: d["nodes"].append(3)),
    "tree_node_id": ("tree_m5", lambda d: d["nodes"][-1].update(id=None)),
    "tree_duplicate_node": ("tree_m5", lambda d: d["nodes"].append(dict(d["nodes"][-1]))),
    "tree_feature_not_id": ("tree_m5", lambda d: internal(d)[0].update(feature="1")),
    "tree_edges_not_list": ("tree_m5", lambda d: internal(d)[0].update(edges={})),
    "tree_edge_not_object": ("tree_m5", lambda d: internal(d)[-1]["edges"].__setitem__(0, [])),
    "tree_child": ("tree_m5", lambda d: internal(d)[-1]["edges"][0].update(child=[1])),
    "tree_neither": ("tree_m5",
                     lambda d: d["nodes"].__setitem__(-1, {"id": d["nodes"][-1]["id"]})),
    "tree_unknown_child": ("tree_m5", lambda d: internal(d)[-1]["edges"][0].update(child=999)),
    "tree_reached_twice": ("tree_m5", lambda d: internal(d)[0]["edges"][1].update(
        child=internal(d)[0]["edges"][0]["child"])),
    "tree_edge_outside": ("tree_mixed", lambda d: internal(d)[-1]["edges"][0]["values"].append(9)),
    "tree_edge_unhashable": ("tree_m5",
                             lambda d: internal(d)[0]["edges"][0]["values"].append([0])),
    "tree_two_children": ("tree_m5", lambda d: internal(d)[0]["edges"][1]["values"].append(
        internal(d)[0]["edges"][0]["values"][0])),
    "tree_not_covered": ("tree_m5", lambda d: internal(d)[0]["edges"].pop()),
    "tree_empty_edge": ("tree_m5", lambda d: internal(d)[-1]["edges"][0].update(values=[])),
    "tree_tested_twice": ("tree_m5", tested_twice),
    "tree_unknown_feature": ("tree_m5", lambda d: internal(d)[0].update(feature=6)),
    "tree_unreachable": ("tree_m5", lambda d: d["nodes"].append({"id": "orphan", "value": 1})),
    "tree_label_leaf": ("tree_m5", lambda d: leaves(d)[-1].update(value="x")),
    "tree_constant": ("tree_m5", lambda d: [n.update(value="1/2") for n in leaves(d)]),
    "tree_discrete_only": ("box_grid", lambda d: d.update(kind="tree", root=0, nodes=[])),
    "box_cells_not_list": ("box_kd3", lambda d: d.update(cells={})),
    "box_no_cells": ("box_kd3", lambda d: d.update(cells=[])),
    "box_cell_not_object": ("box_kd3", lambda d: d["cells"].__setitem__(2, 1)),
    "box_pairs": ("box_kd3", lambda d: d["cells"][1]["box"].__setitem__(0, [0])),
    "box_short": ("box_kd3", lambda d: d["cells"][1]["box"].pop()),
    "box_affine": ("box_kd3", lambda d: d["cells"][3]["affine"].pop()),
    "box_rational": ("box_kd3", lambda d: d["cells"][4]["affine"].__setitem__(0, "x")),
    "box_bool": ("box_kd3", lambda d: d["cells"][4]["box"][0].__setitem__(0, True)),
    "box_interval": ("box_kd3", lambda d: d["cells"][5]["box"][1].reverse()),
    "box_outside": ("box_kd3", lambda d: d["cells"][0]["box"][2].__setitem__(0, -2)),
    "box_gap": ("box_kd3", lambda d: d["cells"].pop(3)),
    "box_overlap": ("box_kd4", lambda d: d["cells"].append(d["cells"][2])),
    "box_overlaps": ("box_kd4", lambda d: d["cells"][0]["box"][1].__setitem__(1, 1)),
    "box_gap_2d": ("box_grid", lambda d: d["cells"].pop(0)),
    "box_overlap_2d": ("box_grid", lambda d: d["cells"].append(d["cells"][-1])),
    "box_overlaps_2d": ("box_grid", lambda d: d["cells"][0]["box"][0].__setitem__(1, 1)),
    "box_constant": ("box_grid", lambda d: [c.update(affine=[1, 0, 0]) for c in d["cells"]]),
    "box_discrete": ("table_m6", lambda d: d.update(kind="box_piecewise", cells=[])),
    "box_labels": ("box_grid", lambda d: d.update(value_kind="categorical")),
}
RAW_MODELS = {"doc_not_json": b"{", "doc_not_utf8": b"\xff\xfe", "doc_not_object": b"[]",
              "doc_deep": b"[" * 100000}


def sample_errors(delim, lines) -> dict[str, list[str]]:
    """Refused variants of a valid sample's lines: the bad line comes after
    every good one, so the loader reads and remembers them first."""
    header, rows = lines[0], lines[1:]
    fields = rows[0].split(delim)
    width = len(fields)

    def with_last(*bad):
        return [header, *rows, *bad]

    changed = lambda j, text: delim.join(fields[:j] + [text] + fields[j + 1:])  # noqa: E731
    errors = {
        "header_only": [header],
        "bad_header": [header.upper(), *rows],
        "fields": with_last(rows[0] + delim + "1"),
        "outside": with_last(changed(width - 1 - ("prediction" in header), "99")),
        "token": with_last(changed(0, "1/0")),
        "repeated": with_last(changed(0, "[1]"), rows[1], changed(0, "[1]")),
    }
    if "prediction" in header:
        errors["disagrees"] = with_last(changed(width - 1, "77/3"))
        errors["prediction_token"] = with_last(changed(width - 1, "x/y"))
    return errors


def generate(directory) -> dict[str, list[list[str]]]:
    """Write the corpus's files into ``directory``; each input's invocations."""
    directory, rng = Path(directory), random.Random(SEED)
    corpus, docs = {}, {}

    def write(name, data):
        (directory / name).write_bytes(data if isinstance(data, bytes) else data.encode())

    for name, model in valid_models(rng):
        docs[name] = document(model)
        write(f"{name}.json", json.dumps(docs[name]))
        delim, lines = sample_lines(model, rng, predictions=name[-1] != "4")
        write(f"{name}.csv", "\n".join(lines) + "\n")
        corpus[name] = invocations(name, model, rng)
        for error, bad in sample_errors(delim, lines).items():
            write(f"{name}.{error}.csv", "\n".join(bad) + "\n")
            corpus[f"{name}.{error}"] = [
                ["validate", "--model", f"{name}.json", "--sample", f"{name}.{error}.csv"]]
    for name, model, instances in large_boxes(rng):
        write(f"{name}.json", json.dumps(document(model)))
        corpus[name] = large_box_invocations(name, instances)
    write("not_utf8.csv", b"\xff\n")
    corpus["sample_not_utf8"] = [["validate", "--model", "tree_m5.json",
                                  "--sample", "not_utf8.csv"]]
    for name, (base, change) in MODEL_ERRORS.items():
        write(f"{name}.json", json.dumps(mutated(docs[base], change)))
    for name, data in RAW_MODELS.items():
        write(f"{name}.json", data)
    for name in [*MODEL_ERRORS, *RAW_MODELS]:
        corpus[name] = [["validate", "--model", f"{name}.json"]]
    corpus["table_default"] += [["relevancy", "--model", "table_default.json",
                                 "--instance=1,1,1,1,1,1", "--output", output]
                                for output in ("json", "table")]
    corpus["missing_model"] = [["validate", "--model", "missing.json"]]
    return corpus


def files_digest(directory) -> str:
    """One SHA-256 over every generated file's name and bytes."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        digest.update(json.dumps([path.name, path.stat().st_size]).encode() + path.read_bytes())
    return digest.hexdigest()


def report_digest(runs) -> str:
    """One SHA-256 over the (argv, exit code, stdout, stderr) record of each
    run, made in the current directory; a table's ``time:`` line is dropped."""
    digest = hashlib.sha256()
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
        text = "".join(line for line in out.getvalue().splitlines(True)
                       if not line.startswith("time: "))
        digest.update(json.dumps([argv, code, text, err.getvalue()]).encode() + b"\n")
    return digest.hexdigest()


def pins(directory) -> dict:
    """The digests of the corpus written into ``directory``, run from there."""
    corpus, here = generate(directory), os.getcwd()
    os.chdir(directory)
    try:
        reports = {name: report_digest(runs) for name, runs in corpus.items()}
    finally:
        os.chdir(here)
    return {"files": files_digest(directory), "reports": reports}


def main() -> None:
    old = json.loads(PINS.read_text()) if PINS.exists() else {"files": None, "reports": {}}
    with tempfile.TemporaryDirectory() as directory:
        new = pins(directory)
    PINS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    if new["files"] != old["files"]:
        print("files: the generated inputs changed")
    for name in sorted(old["reports"].keys() | new["reports"].keys()):
        if old["reports"].get(name) != new["reports"].get(name):
            state = "added" if name not in old["reports"] else \
                "removed" if name not in new["reports"] else "changed"
            print(f"{name}: {state}")


if __name__ == "__main__":
    main()
