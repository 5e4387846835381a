"""Seeded fuzzing of the command line.

Hostile models, samples and flags must end in a documented exit code (0
for success, 2 for a validation error, 3 for a computation error), never
in an escaped exception, and within a bounded time. The examples are
drawn by hypothesis with ``derandomize=True``, so every run draws the
same ones.
"""

import contextlib
import copy
import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from shapxp.cli import run_cli
from conftest import FIXTURES, cpu_limit

MODELS = ("cls3.json", "cls3_tree.json", "reg2.json", "reg2_tree.json", "pw2.json")
SAMPLE_MODELS = ("reg2.json", "reg2_tree.json", "pw2.json")  # features x1, x2
HOSTILE_LEAVES = (None, True, False, 0, -1, 2, 10 ** 30, -10 ** 30, 0.5, 1e308,
                  float("nan"), float("inf"), "", "x", "1/0", "0/0", "-1/2", "NaN",
                  "²", [], [0], [[0, 1]], {}, {"type": "discrete"})
BOUNDS = tuple(f"{k}/4" for k in range(-2, 7))  # pw2's domain [-1/2, 3/2] on the quarters
HOSTILE_TOKENS = ("0", "1", "-1", "2", "1/2", "3/2", "-1/2", "1/0", "x", "", "1e-400",
                  "10" * 20, ",", "1,1", "²", "nan")
COMMANDS = (
    ["validate"], ["relevancy"], ["axp"], ["cxp"],
    ["enumerate", "--kind", "axp"], ["enumerate", "--kind", "cxp"],
    ["shap", "--game", "expected"], ["shap", "--game", "waxp"],
    ["shap", "--game", "expected", "--method", "cgt", "--epsilon", "1/4"],
    ["shap", "--game", "waxp", "--method", "cgt", "--epsilon", "1/4"],
    ["compare"],
)
FLAGS = {  # some flags each command takes, beyond --model and --sample
    "validate": ("--output", "--with-timing"),
    "relevancy": ("--instance", "--delta", "--agnostic", "--output"),
    "axp": ("--instance", "--delta", "--agnostic", "--from"),
    "cxp": ("--instance", "--delta", "--agnostic", "--from"),
    "enumerate": ("--instance", "--delta", "--agnostic", "--kind"),
    "shap": ("--instance", "--delta", "--agnostic", "--game", "--method", "--epsilon",
             "--alpha", "--seed"),
    "compare": ("--instance", "--delta", "--agnostic", "--persistence", "--depth", "--abs"),
}
SWITCHES = ("--agnostic", "--abs", "--with-timing")
FLAG_VALUES = HOSTILE_TOKENS + ("1,1,2", "axp", "cxp", "waxp", "expected", "exact", "cgt",
                                "json", "table")
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                suppress_health_check=list(HealthCheck))
EXAMPLE_SECONDS = 5


def run(argv):
    """run_cli's exit code, with argparse's exits counted as codes."""
    out, err = io.StringIO(), io.StringIO()
    started = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_cli(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.process_time() - started < EXAMPLE_SECONDS, argv
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


def leaves(node, path=()):
    """Paths to every scalar or empty container of a JSON document."""
    if isinstance(node, dict) and node:
        for key, child in node.items():
            yield from leaves(child, path + (key,))
    elif isinstance(node, list) and node:
        for k, child in enumerate(node):
            yield from leaves(child, path + (k,))
    else:
        yield path


def replaced(doc, path, value):
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def widened(doc, k, copies):
    """The document with feature k copied ``copies`` times; the copies are
    untested by trees, carried along on the table's points, and free over
    their whole domain in every box cell."""
    doc = copy.deepcopy(doc)
    features = doc["features"]
    source = features[k]
    for _ in range(copies):
        dup = dict(source, id=len(features) + 1, name=f"dup{len(features) + 1}")
        features.append(dup)
        for entry in doc.get("table", ()):
            entry["point"].append(entry["point"][k])
        for cell in doc.get("cells", ()):
            cell["box"].append([source["domain"]["lo"], source["domain"]["hi"]])
            cell["affine"].append(0)
    return doc


def rewired(doc, draw):
    """The tree with one edge's child pointed at another existing node,
    which makes a shared child or a cycle."""
    edges = [edge for node in doc["nodes"] for edge in node.get("edges", ())]
    edge = draw(st.sampled_from(edges))
    edge["child"] = draw(st.sampled_from(
        [node["id"] for node in doc["nodes"] if node["id"] != edge["child"]]))
    return doc


def emptied_edge(doc, draw):
    """The tree with an edge that routes no value added to one node, its
    child a new leaf of a class no point reaches."""
    node = draw(st.sampled_from([node for node in doc["nodes"] if "edges" in node]))
    node["edges"].append({"values": [], "child": "unrouted"})
    doc["nodes"].append({"id": "unrouted", "value": 7})
    return doc


def moved_bound(doc, draw):
    """The box model with one cell bound moved to another rational inside
    the domain, which leaves a gap, an overlap or an empty interval."""
    cell = draw(st.sampled_from(doc["cells"]))
    bounds = draw(st.sampled_from(cell["box"]))
    bounds[draw(st.integers(0, 1))] = draw(st.sampled_from(BOUNDS))
    return doc


def respelled(token, draw):
    """Another spelling of a rational token: as often the same value, a
    "p/q" string or a decimal, as a token that is no value (true, null, a
    nested list). Other tokens are kept."""
    try:
        value = Fraction(token)
    except (TypeError, ValueError, ZeroDivisionError):
        return token
    ratio = f"{3 * value.numerator}/{3 * value.denominator}"
    return draw(st.sampled_from((ratio, float(value), ratio, float(value),
                                 True, None, [token], [[token]])))


def respelled_points(doc, draw):
    """The table with some point tokens re-spelled, so that one feature's
    token cache sees one value under several keys."""
    points = [entry["point"] for entry in doc["table"]]
    for _ in range(draw(st.integers(1, 4))):
        point = draw(st.sampled_from(points))
        j = draw(st.integers(0, len(point) - 1))
        point[j] = respelled(point[j], draw)
    return doc


def instance_for(doc, draw):
    """One comma-separated point: each coordinate a domain value (an
    interval's end) or -1, which most domains lack."""
    tokens = []
    for feature in doc["features"]:
        domain = feature["domain"]
        values = domain.get("values") or [domain.get("lo"), domain.get("hi")]
        tokens.append(str(draw(st.sampled_from(values + ["-1"]))))
    return ",".join(tokens)


@FUZZ
@given(st.data())
def test_mutated_models(tmp_path_factory, data):
    name = data.draw(st.sampled_from(MODELS))
    doc = json.loads((FIXTURES / name).read_text())
    k = data.draw(st.integers(0, len(doc["features"]) - 1))
    doc = widened(doc, k, data.draw(st.sampled_from((0, 1, 2, 4))))
    if "nodes" in doc and data.draw(st.booleans()):
        doc = rewired(doc, data.draw)
    emptied = "nodes" in doc and data.draw(st.booleans())
    if emptied:
        doc = emptied_edge(doc, data.draw)
    if "cells" in doc and data.draw(st.booleans()):
        doc = moved_bound(doc, data.draw)
    # A re-spelled table takes no hostile leaves, so that some of them load.
    respell = "table" in doc and data.draw(st.booleans())
    if respell:
        doc = respelled_points(doc, data.draw)
    instance = instance_for(doc, data.draw)
    paths = list(leaves(doc))
    for _ in range(0 if respell else data.draw(st.integers(0, 2))):
        path = data.draw(st.sampled_from(paths))
        value = copy.deepcopy(data.draw(st.sampled_from(HOSTILE_LEAVES)))
        doc = replaced(doc, path, value)
        paths = list(leaves(doc))
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(doc))
    command = data.draw(st.sampled_from(COMMANDS))
    argv = command + ["--model", str(path)]
    if command != ["validate"]:
        argv.append(f"--instance={instance}")
        if name == "pw2.json":
            argv += ["--delta", "1/5"]
    code = run(argv)
    if emptied:
        assert code == 2, argv


def results(argv):
    """The results of a run that succeeds, from its JSON report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(argv + ["--output", "json"]) == 0
    return json.loads(out.getvalue())["results"]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_widened_tree_is_explained_as_the_fixture(tmp_path, k):
    # Nineteen copies of a feature (m = 22) that the tree never tests are
    # irrelevant, so every answer equals the fixture's; they read the
    # tree's basis and enumerate no slice of the 12 * 3^19-point space.
    fixture = FIXTURES / "cls3_tree.json"
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(widened(json.loads(fixture.read_text()), k, 19)))
    for point in ((1, 1, 2), (0, 0, 0), (0, 1, 1), (0, 0, 2)):
        for command, key in ((["axp"], "axp"), (["cxp"], "cxp"), (["relevancy"], "relevant"),
                             (["enumerate", "--kind", "axp"], "sets")):
            want = results(command + ["--model", str(fixture),
                                      "--instance", ",".join(map(str, point))])
            with cpu_limit(1):
                got = results(command + ["--model", str(wide), "--instance",
                                         ",".join(map(str, point + (point[k],) * 19))])
            assert got[key] == want[key]


@pytest.mark.parametrize("copies,code", [(6, 0), (8, 3)])
def test_sampling_the_expected_game_of_a_widened_table_is_bounded(tmp_path, capsys,
                                                                  copies, code):
    # With feature 3 of cls3 copied, the slices of all 2^m coalitions hold
    # 9 * 4^(copies + 1) points: 147,456 at six copies, which answers, and
    # 2,359,296 at eight, past the 2^20 point guard, which refuses before
    # the first draw.
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(widened(json.loads((FIXTURES / "cls3.json").read_text()),
                                       2, copies)))
    instance = ",".join(["1", "1"] + ["2"] * (copies + 1))
    argv = ["shap", "--model", str(wide), "--instance", instance,
            "--game", "expected", "--method", "cgt", "--epsilon", "1/4"]
    with cpu_limit(1 if code else 5):
        assert run_cli(argv) == code
    if code:
        assert "guarded" in capsys.readouterr().err


@FUZZ
@given(st.data())
def test_mutated_samples(tmp_path_factory, data):
    lines = (FIXTURES / "reg2_sample.csv").read_text().splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(",")
        edit = data.draw(st.sampled_from(("field", "respell", "drop", "extra", "copy",
                                          "blank", "tab")))
        if edit in ("field", "respell"):
            j = data.draw(st.integers(0, len(fields) - 1))
            fields[j] = (data.draw(st.sampled_from(HOSTILE_TOKENS)) if edit == "field"
                         else json.dumps(respelled(fields[j], data.draw)).strip('"'))
            lines[k] = ",".join(fields)
        elif edit == "drop":
            lines[k] = ",".join(fields[:-1])
        elif edit == "extra":
            lines[k] = ",".join(fields + ["1"])
        elif edit == "copy":
            lines.insert(k, lines[k])
        elif edit == "blank":
            lines[k] = ""
        else:
            lines[k] = "\t".join(fields)
    if data.draw(st.booleans()):  # repeat some lines, then reorder the rows
        body = lines[1:] + data.draw(st.lists(st.sampled_from(lines[1:]), max_size=6))
        lines = lines[:1] + data.draw(st.permutations(body))
    path = tmp_path_factory.mktemp("sample") / "sample.csv"
    path.write_text("\n".join(lines) + "\n")
    model = str(FIXTURES / data.draw(st.sampled_from(SAMPLE_MODELS)))
    command = data.draw(st.sampled_from(COMMANDS))
    argv = command + ["--model", model, "--sample", str(path)]
    if command != ["validate"]:
        argv += ["--instance", "1,1", "--agnostic", "--delta", "1/5"]
    run(argv)


@FUZZ
@given(st.data())
def test_mutated_flags(data):
    model = FIXTURES / data.draw(st.sampled_from(MODELS))
    argv = data.draw(st.sampled_from(COMMANDS)) + ["--model", str(model)]
    if argv[0] != "validate":
        argv.append("--instance=" + ("1,1,2" if "cls3" in model.name else "1,1"))
    for _ in range(data.draw(st.integers(0, 4))):
        flag = data.draw(st.sampled_from(FLAGS[argv[0]]))
        if flag not in SWITCHES:
            flag += "=" + data.draw(st.sampled_from(FLAG_VALUES))
        argv.append(flag)
    if data.draw(st.booleans()):
        argv += ["--sample", str(FIXTURES / "reg2_sample.csv")]
    run(argv)
