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
import random
import time
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from shapxp import DomainError, TabularModel, ValidationError, load_model
from shapxp.cli import run_cli
from shapxp.modelio import (_box_cells, _box_columns, _sample_columns, _sample_lines,
                            _space_from, _split_header, _table_columns, _table_entries,
                            model_from_dict, parse_value, read_point)
from shapxp.models import CATEGORICAL, NUMERIC, dense_slots
from boxmodels import cells_of, random_grid_model, random_kd_model
from conftest import FIXTURES, cpu_limit
from test_io_cli import HOSTILE_INPUTS

MODELS = ("cls3.json", "cls3_tree.json", "reg2.json", "reg2_tree.json", "pw2.json")
SAMPLE_MODELS = ("reg2.json", "reg2_tree.json", "pw2.json")  # features x1, x2
HOSTILE_LEAVES = (None, True, False, 0, -1, 2, 10 ** 30, -10 ** 30, 0.5, 1e308,
                  float("nan"), float("inf"), "", "x", "1/0", "0/0", "-1/2", "NaN",
                  "²", "1e5000", "1e9999999", [], [0], [[0, 1]], {}, {"type": "discrete"})
BOUNDS = tuple(f"{k}/4" for k in range(-2, 7))  # pw2's domain [-1/2, 3/2] on the quarters
HOSTILE_TOKENS = ("0", "1", "-1", "2", "1/2", "3/2", "-1/2", "1/0", "x", "", "1e-400",
                  "10" * 20, ",", "1,1", "²", "nan", "1e5000", "1e9999999")
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
    nested list). Other tokens, and those whose "p/q" passes Python's
    integer digit limit, are kept."""
    try:
        value = Fraction(token)
        ratio = f"{3 * value.numerator}/{3 * value.denominator}"
    except (TypeError, ValueError, ZeroDivisionError):
        return token
    return draw(st.sampled_from((ratio, float(value), ratio, float(value),
                                 True, None, [token], [[token]])))


def respelled_points(doc, draw):
    """The table with some point tokens re-spelled, so that one feature's
    column holds one value under several tokens."""
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


def mutated_model(draw, names=MODELS):
    """(name, doc, instance, emptied): a fixture widened and, as drawn,
    rewired, given an empty edge, a moved bound, re-spelled points or
    hostile leaves; the instance is drawn before the leaves."""
    name = draw(st.sampled_from(names))
    doc = json.loads((FIXTURES / name).read_text())
    k = draw(st.integers(0, len(doc["features"]) - 1))
    doc = widened(doc, k, draw(st.sampled_from((0, 1, 2, 4))))
    if "nodes" in doc and draw(st.booleans()):
        doc = rewired(doc, draw)
    emptied = "nodes" in doc and draw(st.booleans())
    if emptied:
        doc = emptied_edge(doc, draw)
    if "cells" in doc and draw(st.booleans()):
        doc = moved_bound(doc, draw)
    # A re-spelled table takes no hostile leaves, so that some of them load.
    respell = "table" in doc and draw(st.booleans())
    if respell:
        doc = respelled_points(doc, draw)
    instance = instance_for(doc, draw)
    paths = list(leaves(doc))
    for _ in range(0 if respell else draw(st.integers(0, 2))):
        path = draw(st.sampled_from(paths))
        value = copy.deepcopy(draw(st.sampled_from(HOSTILE_LEAVES)))
        doc = replaced(doc, path, value)
        paths = list(leaves(doc))
    return name, doc, instance, emptied


@FUZZ
@given(st.data())
def test_mutated_models(tmp_path_factory, data):
    name, doc, instance, emptied = mutated_model(data.draw)
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


def mutated_sample(draw):
    """The lines of reg2_sample.csv with fields replaced, re-spelled,
    dropped or added, lines copied, blanked or tab-separated, and, as
    drawn, some lines repeated and the rows reordered."""
    lines = (FIXTURES / "reg2_sample.csv").read_text().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(",")
        edit = draw(st.sampled_from(("field", "respell", "drop", "extra", "copy",
                                     "blank", "tab")))
        if edit in ("field", "respell"):
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = (draw(st.sampled_from(HOSTILE_TOKENS)) if edit == "field"
                         else json.dumps(respelled(fields[j], draw)).strip('"'))
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
    if draw(st.booleans()):  # repeat some lines, then reorder the rows
        body = lines[1:] + draw(st.lists(st.sampled_from(lines[1:]), max_size=6))
        lines = lines[:1] + draw(st.permutations(body))
    return lines


@FUZZ
@given(st.data())
def test_mutated_samples(tmp_path_factory, data):
    lines = mutated_sample(data.draw)
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


# ---------------------------------------------------------------------------
# The column paths against the loops they stand in for
# ---------------------------------------------------------------------------

TABLES = ("cls3.json", "reg2.json")
DISCRETE_SAMPLE_MODELS = ("reg2.json", "reg2_tree.json")


def typed(values):
    return [(type(y), y) for y in values]


def table_paths(doc, booleans=True):
    """(columns, loop) for a document's table, the loop's error in place of
    its outputs when it raises; None when the table cannot reach them. The
    columns read it with the loader's ``booleans`` flag."""
    try:
        space = _space_from(doc.get("features"), "model")
        dense_slots(space)
    except ValidationError:
        return None
    entries, value_kind = doc.get("table"), doc.get("value_kind", NUMERIC)
    if not isinstance(entries, list) or value_kind not in (NUMERIC, CATEGORICAL):
        return None
    columns = _table_columns(entries, space, value_kind, dense_slots(space), booleans)
    try:
        loop = _table_entries(entries, space, value_kind, dense_slots(space), "model")
    except ValidationError as exc:
        loop = exc
    return columns, loop


def assert_table_paths_agree(doc):
    """The column path returns None exactly when the entry loop raises, and
    otherwise the loop's exact outputs; returns whether it read the table.
    The table is also checked with its entries sorted into slot order and
    reversed, so that the columns' slot-order branch and their offset
    branch both meet every table drawn."""
    for reordered in slot_ordered(doc):
        assert_one_table_order_agrees(reordered)
    return assert_one_table_order_agrees(doc)


def slot_ordered(doc):
    """The document with its entries sorted by the slot the entry loop
    reads for them, those it cannot read last, then reversed; nothing when
    the table or its space cannot be read."""
    try:
        space = _space_from(doc.get("features"), "model")
        dense_slots(space)
    except ValidationError:
        return

    def slot(entry):
        try:
            return space.slot(read_point(space, entry["point"], "model"))
        except (DomainError, ValidationError, KeyError, TypeError):
            return space.size

    if isinstance(doc.get("table"), list):
        ordered = sorted(doc["table"], key=slot)
        yield dict(doc, table=ordered)
        yield dict(doc, table=ordered[::-1])


def assert_one_table_order_agrees(doc):
    """The paths agree on the document, and on it as load_model reads its
    JSON text, with the flag load_model computes from that text: False
    when it holds no true or false, so that a slot-ordered column skips
    its type check. Returns whether the columns read the document."""
    text = json.dumps(doc, default=str)  # a Fraction token as its "p/q" string
    read = json.loads(text, parse_float=parse_value)
    assert_paths_agree(table_paths(read, "true" in text or "false" in text))
    return assert_paths_agree(table_paths(doc))


def assert_paths_agree(paths):
    if paths is None:
        return False
    columns, loop = paths
    assert (columns is None) == isinstance(loop, ValidationError)
    if columns is None:
        return False
    assert typed(columns) == typed(loop)
    return True


def sample_paths(lines, model):
    """(columns, loop) for a sample's lines as load_sample reads them, the
    loop's error in place of its sample when it raises."""
    filled = [line for line in lines if line.strip()]
    header, delim = _split_header(filled[0], [f.name for f in model.space.features], "s")
    columns = _sample_columns(filled[1:], delim, len(header), model)
    try:
        loop = _sample_lines(lines, lines.index(filled[0]), delim, len(header), model, "s")
    except ValidationError as exc:
        loop = exc
    return columns, loop


def assert_sample_paths_agree(lines, model):
    """As assert_table_paths_agree, for the line loop of a sample."""
    try:
        columns, loop = sample_paths(lines, model)
    except (ValidationError, IndexError):  # no header, or no lines at all
        return False
    assert (columns is None) == isinstance(loop, ValidationError)
    if columns is None:
        return False
    assert [typed(row) for row in columns.rows] == [typed(row) for row in loop.rows]
    assert typed(columns.predictions) == typed(loop.predictions)
    return True


@FUZZ
@given(st.data())
def test_the_table_columns_agree_with_the_entry_loop(data):
    # Each mutated table both as drawn and as load_model reads its JSON text.
    _, doc, _, _ = mutated_model(data.draw, TABLES)
    assert_table_paths_agree(doc)
    assert_table_paths_agree(json.loads(json.dumps(doc), parse_float=parse_value))


@FUZZ
@given(st.data())
def test_the_sample_columns_agree_with_the_line_loop(data):
    # Both paths' rows hold the domain's own objects, and repeated lines share one row.
    lines = mutated_sample(data.draw)
    for name in DISCRETE_SAMPLE_MODELS:
        model = load_model(FIXTURES / name)
        if not assert_sample_paths_agree(lines, model):
            continue
        shared = first_positions([line for line in lines if line.strip()][1:])
        for sample in sample_paths(lines, model):
            assert first_positions(map(id, sample.rows)) == shared
            for row in sample.rows:
                assert all(x is f.domain.values[f.domain.index[x]]
                           for f, x in zip(model.space.features, row))


def first_positions(keys):
    """For each key, the position where it first occurs."""
    first = {}
    return [first.setdefault(key, k) for k, key in enumerate(keys)]


def spelled_number(token, draw):
    """A rational token spelled as drawn: as a JSON int when integral, a
    decimal when exact in binary, or a string ("1" or "2/2" for 1); other
    tokens are kept."""
    try:
        value = parse_value(token)
    except ValidationError:
        return token
    if not isinstance(value, Fraction):
        return token
    spellings = [str(value), f"{2 * value.numerator}/{2 * value.denominator}"]
    spellings += [value.numerator] * (value.denominator == 1)
    spellings += [float(value)] * (float(value) == value)
    return draw(st.sampled_from(spellings))


@FUZZ
@given(st.data())
def test_the_table_columns_agree_with_the_entry_loop_on_every_spelling(data):
    # Each point token and value of a mutated table spelled as drawn.
    _, doc, _, _ = mutated_model(data.draw, TABLES)
    for entry in doc["table"] if isinstance(doc.get("table"), list) else ():
        if isinstance(entry, dict) and isinstance(entry.get("point"), list):
            entry["point"] = [spelled_number(t, data.draw) for t in entry["point"]]
        if isinstance(entry, dict) and "value" in entry:
            entry["value"] = spelled_number(entry["value"], data.draw)
    assert_table_paths_agree(doc)
    assert_table_paths_agree(json.loads(json.dumps(doc), parse_float=parse_value))


@FUZZ
@given(st.data())
def test_the_sample_columns_agree_with_the_line_loop_on_every_spelling(data):
    # Each field of a mutated sample spelled as drawn, a decimal as JSON writes it.
    lines = [",".join(json.dumps(spelled_number(f, data.draw)).strip('"')
                      for f in line.split(",")) for line in mutated_sample(data.draw)]
    for name in DISCRETE_SAMPLE_MODELS:
        assert_sample_paths_agree(lines, load_model(FIXTURES / name))


def table_with(**changes):
    """reg2 as load_model reads it, with ``changes`` made to its document."""
    doc = json.loads((FIXTURES / "reg2.json").read_text(), parse_float=parse_value)
    doc.update(changes)
    return doc


REG2_TABLE = table_with()["table"]  # its space in slot order


def reg2_points(*points):
    """reg2's table with these points."""
    return [dict(entry, point=point) for entry, point in zip(REG2_TABLE, points)]


IRREGULAR_TABLES = {  # each sends the table to the entry loop
    "one-point-twice": [{"point": [1], "value": 1}, {"point": ["1/1"], "value": 0}],
    "a-true-token": [{"point": [True, 0], "value": 1}] + REG2_TABLE[1:],
    "a-missing-value": [{"point": [0, 0]}] + REG2_TABLE[1:],
    "a-non-object-entry": [[[0, 0], 1]] + REG2_TABLE[1:],
    "a-true-value-after-a-one": REG2_TABLE[:3] + [{"point": [1, 1], "value": True}],
    "a-duplicate-for-a-missing-point": reg2_points([0, 0], [0, 1], [1, 0], [1, 0]),
}


@pytest.mark.parametrize("table", IRREGULAR_TABLES.values(), ids=IRREGULAR_TABLES)
def test_an_irregular_table_goes_to_the_entry_loop(table):
    doc = table_with(table=table)
    if table is IRREGULAR_TABLES["one-point-twice"]:
        doc["features"] = doc["features"][:1]
    columns, loop = table_paths(doc)
    assert columns is None and isinstance(loop, ValidationError)


def test_a_categorical_table_with_an_int_value_goes_to_the_entry_loop():
    doc = json.loads((FIXTURES / "cls3.json").read_text())
    doc["value_kind"] = "categorical"
    for entry in doc["table"]:
        entry["value"] = str(entry["value"])
    assert assert_table_paths_agree(doc)
    doc["table"][5]["value"] = 1
    columns, loop = table_paths(doc)
    assert columns is None
    assert str(loop) == "model: table entry 5: categorical values must be strings, got 1"


@pytest.mark.parametrize("doc", [
    table_with(table=[dict(entry, point=[x / 1 for x in entry["point"]])
                      for entry in json.loads((FIXTURES / "reg2.json").read_text())["table"]]),
    json.loads(json.dumps(table_with()).replace("[1, 0]", "[1.0, 0]"), parse_float=parse_value),
    table_with(table=[], default=1),
    table_with(table=REG2_TABLE[:2], default=1),
], ids=["float-tokens", "a-decimal-token", "an-empty-table", "a-default"])
def test_a_table_the_columns_read_gives_the_loop_outputs(doc):
    # Python floats are no token type the columns read; the JSON decimal
    # 1.0 loads as the Fraction 1, which they do.
    regular = assert_table_paths_agree(doc)
    assert regular == all(isinstance(t, (int, Fraction)) for entry in doc["table"]
                          for t in entry["point"])


@pytest.mark.parametrize("doc", [
    table_with(table=reg2_points([0, 0], [0, "1"], [1, 0], [1, 1])),
    table_with(table=reg2_points([0, 0], [0, 1], ["2/2", 0], [1, 1])),
    json.loads(json.dumps(table_with()).replace("[1, 1]", "[1.0, 1]"), parse_float=parse_value),
], ids=["a-string-1", "2/2", "a-decimal-1.0"])
def test_a_slot_ordered_table_spelled_otherwise_gives_the_loop_outputs(doc):
    assert assert_table_paths_agree(doc)


LOADED_TABLES = {  # edits to reg2's slot-ordered text, and whether it then loads
    "true-for-a-1": ([('"point": [1, 0]', '"point": [true, 0]')], False),
    "false-for-a-0": ([('"point": [0, 1]', '"point": [false, 1]')], False),
    "a-feature-named-true": ([('"name": "x2"', '"name": "true"')], True),
    "1.0-and-2/2": ([('"point": [1, 0]', '"point": [1.0, 0]'),
                     ('"point": [0, 1]', '"point": [0, "2/2"]')], True),
    "a-true-value": ([('"value": 1}', '"value": true}')], False),
}


@pytest.mark.parametrize("edits,loads", LOADED_TABLES.values(), ids=LOADED_TABLES)
def test_a_loaded_table_gives_the_entry_loops_model_or_error(tmp_path, edits, loads):
    # load_model skips a slot-ordered column's type check only when the
    # text holds no true or false; the entry loop reads every token.
    text = (FIXTURES / "reg2.json").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / "model.json"
    path.write_text(text)
    doc, where = json.loads(text, parse_float=parse_value), str(path)
    try:
        space = _space_from(doc["features"], where)
        loop = TabularModel(space, _table_entries(doc["table"], space, NUMERIC,
                                                  dense_slots(space), where))
    except ValidationError as exc:
        assert not loads
        with pytest.raises(ValidationError) as raised:
            load_model(path)
        assert str(raised.value) == str(exc)
    else:
        assert loads
        model = load_model(path)
        assert model == loop and typed(model.outputs) == typed(loop.outputs)


SAMPLE_CASES = {  # (lines, whether the columns read them)
    "padded-fields": (["x1,x2,prediction", " 1,1 , 1 ", "0, 0,-1/2"], True),
    "a-repeated-line": (["x1,x2,prediction", "1,1,1", "0,1,3/2", "1,1,1", "1,1,1"], True),
    "two-spellings-of-a-row": (["x1,x2", "1,1", "1/1,1.0", "1,1"], True),
    "a-disagreeing-prediction": (["x1,x2,prediction", "1,1,1", "0,0,1"], False),
    "an-unparsed-prediction": (["x1,x2,prediction", "1,1,one"], False),
    "a-value-outside-the-domain": (["x1,x2", "1,1", "2,1"], False),
    "a-short-line": (["x1,x2,prediction", "1,1,1", "1,1"], False),
}


@pytest.mark.parametrize("lines,regular", SAMPLE_CASES.values(), ids=SAMPLE_CASES)
@pytest.mark.parametrize("name", DISCRETE_SAMPLE_MODELS)
def test_a_sample_goes_to_the_columns_exactly_when_it_is_regular(lines, regular, name):
    model = load_model(FIXTURES / name)
    assert assert_sample_paths_agree(lines, model) == regular
    if not regular:
        assert isinstance(sample_paths(lines, model)[1], ValidationError)


# ---------------------------------------------------------------------------
# Box cells: the column path against the cell loop
# ---------------------------------------------------------------------------

def box_paths(doc, booleans=True):
    """(columns, loop) for a document's cells: the two loaders' (bounds,
    affines) columns, or the loop's error when it raises; None when the
    cells cannot reach them. The columns read them with the loader's
    ``booleans`` flag."""
    try:
        m = _space_from(doc.get("features"), "model").m
    except ValidationError:
        return None
    if not isinstance(doc.get("cells"), list):
        return None
    columns = _box_columns(doc["cells"], m, booleans)
    try:
        return columns, _box_cells(doc["cells"], m, "model")
    except ValidationError as exc:
        return columns, exc


def column_values(columns):
    return typed(chain.from_iterable(chain(*columns)))


def assert_box_paths_agree(doc):
    """As assert_table_paths_agree, for the cell loop of a box model: the
    same columns, every value of the same type, on the document and on it
    as load_model reads its JSON text, with the flag load_model computes
    from that text: False when it holds no true or false, so that only
    the distinct tokens' types are checked."""
    text = json.dumps(doc, default=str)  # a Fraction token as its "p/q" string
    read = json.loads(text, parse_float=parse_value)
    assert_box_columns_agree(box_paths(read, "true" in text or "false" in text))
    return assert_box_columns_agree(box_paths(doc))


def assert_box_columns_agree(paths):
    if paths is None:
        return False
    columns, loop = paths
    assert (columns is None) == isinstance(loop, ValidationError)
    if columns is None:
        return False
    assert columns == loop
    assert column_values(columns) == column_values(loop)
    return True


@FUZZ
@given(st.data())
def test_the_box_columns_agree_with_the_cell_loop(data):
    _, doc, _, _ = mutated_model(data.draw, ("pw2.json",))
    assert_box_paths_agree(doc)
    assert_box_paths_agree(json.loads(json.dumps(doc), parse_float=parse_value))


def spelled(rng, x):
    """A JSON token for the rational x: an integer, a "p/q" string or a
    decimal (the models' bounds and coefficients are exact in binary)."""
    options = [str(x), float(x)] + ([int(x)] if x.denominator == 1 else [])
    return rng.choice(options)


def test_random_box_documents_read_by_columns_give_the_loop_cells():
    rng = random.Random(20261019)
    for n in range(60):
        m = 1 + n % 3
        model = random_kd_model(rng, m, rng.randint(1, 9)) if n % 2 else random_grid_model(rng, m)
        doc = {"version": 1, "kind": "box_piecewise",
               "features": [{"id": j + 1, "domain": {"type": "interval", "lo": -1, "hi": 1}}
                            for j in range(m)],
               "cells": [{"box": [[spelled(rng, lo), spelled(rng, hi)] for lo, hi in cell.box],
                          "affine": [spelled(rng, a) for a in (cell.intercept, *cell.coeffs)]}
                         for cell in cells_of(model)]}
        doc = json.loads(json.dumps(doc), parse_float=parse_value)
        assert assert_box_paths_agree(doc)
        assert model_from_dict(doc) == model


MALFORMED_BOXES = [param for param in HOSTILE_INPUTS
                   if b'"box_piecewise"' in param.values[0].get("model.json", b"")]


@pytest.mark.parametrize("files,argv", MALFORMED_BOXES,
                         ids=[param.id for param in MALFORMED_BOXES])
def test_a_malformed_box_document_goes_to_the_cell_loop(files, argv):
    doc = json.loads(files["model.json"], parse_float=parse_value)
    columns, loop = box_paths(doc)
    assert columns is None and isinstance(loop, ValidationError)


@pytest.mark.parametrize("token", [True, False, None, "x", "1/0", "1e5000", 0.5, [1], {}],
                         ids=repr)
def test_a_box_token_that_is_no_rational_goes_to_the_cell_loop(token):
    doc = json.loads((FIXTURES / "pw2.json").read_text(), parse_float=parse_value)
    doc["cells"][1]["affine"][0] = token
    # A text holding a boolean sets the flag; any other is read both ways.
    for booleans in (True,) if isinstance(token, bool) else (True, False):
        columns, loop = box_paths(doc, booleans)
        assert columns is None and isinstance(loop, ValidationError)
