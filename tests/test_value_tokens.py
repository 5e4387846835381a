"""Raw value tokens in model files, samples and --instance.

Every spelling of a domain value reads as that value, and its coordinates
are the domain's own objects, whether the column paths read it or
``read_point`` does (the entry and line loops, and --instance); tokens
that are no value fail with the same message wherever they stand.
"""

import json
import sys
from fractions import Fraction as F
from itertools import product

import pytest

from shapxp import ValidationError, load_model, load_sample
from shapxp.cli import run_cli
from shapxp.modelio import _rational, parse_rational, parse_value, read_point
from shapxp.models import labelled_points
from conftest import FIXTURES, cpu_limit

REG2 = FIXTURES / "reg2.json"
# Spellings of 0 and 1 in a JSON model file; a JSON decimal parses exactly.
ZEROS = (0, "0", "0/5", 0.0, "-0")
ONES = (1, "1", "1/1", 1.0, "2/2", " 1")
# CPython shares the objects 0 and 1, so ``is`` holds on them whatever the
# loader returns. It shares none of these values: each token spells the
# domain value at its index, a number never as the domain does and the
# label as another object.
UNCACHED = {"version": 1, "kind": "tabular", "value_kind": "numeric",
            "features": [{"id": 1, "name": "x", "domain": {"type": "discrete",
                                                           "values": ["1/2", 1000000, "abc"]}}],
            "table": [{"point": ["1/2"], "value": 0}, {"point": [1000000], "value": 1},
                      {"point": ["abc"], "value": "1/3"}]}
RESPELLED = (("0.5", 0), (0.5, 0), ("2/4", 0), ("1e6", 1), (1e6, 1), ("abc", 2))


def spelled(x, k):
    spellings = ONES if x else ZEROS
    return spellings[k % len(spellings)]


def reg2_spelled(k):
    """reg2 with its point tokens spelled in turn, from the k-th spelling on."""
    doc = json.loads(REG2.read_text())
    for n, entry in enumerate(doc["table"]):
        entry["point"] = [spelled(x, k + n + j) for j, x in enumerate(entry["point"])]
    return doc


def write_json(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def validate_error(capsys, path):
    assert run_cli(["validate", "--model", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("k", range(len(ONES)))
def test_every_spelling_of_a_table_point_reads_as_the_same_value(tmp_path, k):
    model = load_model(write_json(tmp_path, reg2_spelled(k)))
    assert model == load_model(REG2)
    assert dict(labelled_points(model)) == dict(labelled_points(load_model(REG2)))


def test_sample_rows_and_predictions_read_through_the_caches(tmp_path):
    model = load_model(REG2)
    path = tmp_path / "s.csv"
    path.write_text("x1,x2,prediction\n1,1,1\n1/1,1.0,1/1\n2/2, 1 ,1.0\n"
                    "0,0,-1/2\n0.0,0/3,-0.5\n")
    sample = load_sample(path, model)
    ones = model.space.domain(1).values[1], model.space.domain(2).values[1]
    assert sample.rows[:3] == (ones,) * 3
    assert all(row[0] is ones[0] and row[1] is ones[1] for row in sample.rows[:3])
    assert sample.predictions == (1, 1, 1, F(-1, 2), F(-1, 2))


def test_sample_rows_are_the_domains_own_uncached_objects(tmp_path):
    model = load_model(write_json(tmp_path, UNCACHED))
    path = tmp_path / "s.csv"
    path.write_text("x,prediction\n" + "".join(f"{token},{model.outputs[k]}\n"
                                                for token, k in RESPELLED))
    sample = load_sample(path, model)
    values = model.space.domain(1).values
    assert [row[0] for row in sample.rows] == [values[k] for _, k in RESPELLED]
    assert all(row[0] is values[k] for row, (_, k) in zip(sample.rows, RESPELLED))


# A problem built from values equal to the domain's, but not the same
# objects, is slower to build: dict lookups and tuple membership lose their
# identity shortcut and compare Fractions.
@pytest.mark.parametrize("path", [REG2, FIXTURES / "cls3.json"], ids=lambda p: p.stem)
def test_read_point_gives_the_domains_own_objects(path):
    space = load_model(path).space
    for x, spellings in ((0, ZEROS), (1, ONES)):
        for token in spellings:
            # As a model file's JSON gives the token, and as --instance text.
            for raw in (json.loads(json.dumps(token), parse_float=parse_value), str(token)):
                point = read_point(space, [raw] * space.m, "--instance")
                assert all(y is f.domain.values[x] for f, y in zip(space.features, point))


def test_read_point_gives_the_domains_own_uncached_objects(tmp_path):
    space = load_model(write_json(tmp_path, UNCACHED)).space
    values = space.domain(1).values
    for token, k in RESPELLED:
        for raw in (json.loads(json.dumps(token), parse_float=parse_value), str(token)):
            (y,) = read_point(space, [raw], "--instance")
            assert y == values[k] and y is values[k], (token, raw)


def test_read_point_returns_an_interval_point_as_parsed():
    space = load_model(FIXTURES / "pw2.json").space
    point = read_point(space, ["1", " 1/2"], "--instance")
    assert [(type(y), y) for y in point] == [(F, 1), (F, F(1, 2))]


def test_instance_spellings_give_byte_identical_reports(capsys):
    reports = []
    for text in ("1,1", "1/1,1.0", "2/2,1"):
        assert run_cli(["shap", "--game", "expected", "--output", "json",
                        "--model", str(REG2), "--instance", text]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]


def test_two_spellings_of_one_point_are_a_duplicate(tmp_path):
    doc = {"version": 1, "kind": "tabular",
           "features": [{"id": 1, "name": "a", "domain": {"type": "discrete",
                                                          "values": [0, 1]}}],
           "table": [{"point": [1], "value": 1}, {"point": ["1/1"], "value": 0},
                     {"point": [0], "value": 0}]}
    with pytest.raises(ValidationError,
                       match=r"table entry 1: duplicate point \(Fraction\(1, 1\),\)$"):
        load_model(write_json(tmp_path, doc))


def binary_table(m):
    """Every point of m binary features, in slot order, valued sum mod 3."""
    features = [{"id": j, "name": f"x{j}", "domain": {"type": "discrete", "values": [0, 1]}}
                for j in range(1, m + 1)]
    table = [{"point": list(p), "value": sum(p) % 3} for p in product((0, 1), repeat=m)]
    return {"version": 1, "kind": "tabular", "features": features, "table": table}


def test_a_wide_table_refused_at_its_last_entry_errs_within_two_cpu_seconds(capsys, tmp_path):
    # The column path refuses the table for its last token, so the entry
    # loop reads all 65,536 entries; it reads each feature's tokens once.
    # Loading the valid twin takes 0.34-0.45 s of CPU and this error
    # 0.58-0.67 s (2-core x86-64 host, Python 3.11); parsing and looking up
    # every token, as the loop did before, took 4-6 s.
    doc = binary_table(16)
    doc["table"][-1]["point"][-1] = 2
    path = write_json(tmp_path, doc)
    with cpu_limit(2):
        err = validate_error(capsys, path)
    assert err == (f"error: {path}: table entry 65535: value Fraction(2, 1) "
                   "outside domain of feature 16 (x16)\n")


def test_the_entry_loop_checks_a_known_token_against_each_feature(capsys, tmp_path):
    # 0 is read at feature 1 in entry 0, but lies outside feature 2's domain.
    doc = binary_table(2)
    doc["features"][1]["domain"]["values"] = [1, 2]
    doc["table"] = [{"point": [0, 1], "value": 0}, {"point": [1, 0], "value": 1}]
    path = write_json(tmp_path, doc)
    assert validate_error(capsys, path) == (f"error: {path}: table entry 1: value "
                                            "Fraction(0, 1) outside domain of feature 2 (x2)\n")


# (token, message) for point tokens that are no value; each is tried in
# the first entry and in a later one, after other entries have read a 1.
NOT_VALUES = [
    (True, "booleans are not rationals"),
    (False, "booleans are not rationals"),
    (None, "None is not a rational literal"),
    ([0], "[0] is not a rational literal"),
    ({}, "{} is not a rational literal"),
]


@pytest.mark.parametrize("entry", [0, 2])
@pytest.mark.parametrize("token,message", NOT_VALUES, ids=lambda t: repr(t)[:12])
def test_a_point_token_that_is_no_value_exits_2(capsys, tmp_path, token, message, entry):
    doc = json.loads(REG2.read_text())
    doc["table"][entry]["point"][0] = token
    path = write_json(tmp_path, doc)
    assert validate_error(capsys, path) == f"error: {path}: table entry {entry}: {message}\n"


@pytest.mark.parametrize("token", ["true", "null", "[1]", "2"])
def test_a_sample_field_that_is_no_domain_value_names_its_line(tmp_path, token):
    path = tmp_path / "s.csv"
    path.write_text(f"x1,x2\n1,1\n{token},1\n")
    with pytest.raises(ValidationError,
                       match=rf"s\.csv:3: value .+ outside domain of feature 1 \(x1\)$"):
        load_sample(path, load_model(REG2))


@pytest.mark.parametrize("token", ["true", "null", "[1]", "2"])
def test_an_instance_token_that_is_no_domain_value_exits_2(capsys, token):
    assert run_cli(["relevancy", "--model", str(REG2), "--instance", f"1,{token}"]) == 2
    assert "outside domain of feature 2 (x2)" in capsys.readouterr().err


def test_a_boolean_table_value_after_a_one_is_still_refused(capsys, tmp_path):
    doc = json.loads(REG2.read_text())
    doc["table"][2]["value"], doc["table"][3]["value"] = 1, True
    path = write_json(tmp_path, doc)
    assert validate_error(capsys, path) == \
        f"error: {path}: table entry 3: booleans are not rationals\n"


# A box model parses each distinct bound and coefficient token once. pw2's
# cell 0 reads the JSON integers 0 and 1 (its affine is [0, 1, 0]) before
# cell 2 is read.
PW2 = FIXTURES / "pw2.json"


@pytest.mark.parametrize("where", [("box", 0, 1), ("affine", 1)], ids=["bound", "coefficient"])
@pytest.mark.parametrize("token", [True, False], ids=repr)
def test_a_boolean_box_token_after_its_integer_is_still_refused(capsys, tmp_path, where, token):
    doc = json.loads(PW2.read_text())
    assert doc["cells"][0]["affine"] == [0, 1, 0]
    parent = doc["cells"][2]
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = token
    path = write_json(tmp_path, doc)
    assert validate_error(capsys, path) == f"error: {path}: cell 2: booleans are not rationals\n"


@pytest.mark.parametrize("token,message", NOT_VALUES + [
    ("x", "'x' is not a rational literal"), ("1/0", "'1/0' is not a rational literal")],
    ids=lambda t: repr(t)[:12])
def test_a_bad_box_token_names_the_first_cell_that_holds_it(capsys, tmp_path, token, message):
    doc = json.loads(PW2.read_text())
    doc["cells"][1]["affine"][0] = token
    doc["cells"][2]["box"][1][0] = token
    path = write_json(tmp_path, doc)
    assert validate_error(capsys, path) == f"error: {path}: cell 1: {message}\n"


# Rational literals whose numerator or denominator, written out, passes
# Python's integer digit limit: each is refused (or kept as a label) from its
# text, before a power of ten is built, so every run exits 2 at once with no
# traceback. JSON numbers are written into the file raw.
CLS3 = FIXTURES / "cls3.json"
REG2_SAMPLE = FIXTURES / "reg2_sample.csv"


def reg2_with(key, literal):
    """reg2's JSON text with ``key`` set to the raw JSON ``literal``."""
    doc = json.loads(REG2.read_text())
    doc[key] = "@"
    return json.dumps(doc).replace('"@"', literal)


def pw2_with_bound(literal):
    doc = json.loads(PW2.read_text())
    doc["cells"][0]["box"][0][0] = literal
    return json.dumps(doc)


def reg2_sample_with(row, field, token):
    lines = REG2_SAMPLE.read_text().splitlines()
    fields = lines[row].split(",")
    fields[field] = token
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


HUGE_LITERALS = [
    pytest.param({"model.json": reg2_with("default", "1e9999999")}, ["validate"],
                 id="default-number-1e9999999"),
    pytest.param({"model.json": reg2_with("default", '"1e9999999"')}, ["validate"],
                 id="default-string-1e9999999"),
    pytest.param({"model.json": reg2_with("default", "1e30000000")}, ["validate"],
                 id="default-number-1e30000000"),
    pytest.param({"model.json": reg2_with("default", "1e5000")},
                 ["shap", "--game", "expected", "--instance", "1,1"],
                 id="default-1e5000-shap"),
    pytest.param({"model.json": pw2_with_bound("-1e5000")}, ["validate"],
                 id="box-bound-1e5000"),
    pytest.param({"model.json": REG2.read_text(), "s.csv": reg2_sample_with(2, 0, "1e5000")},
                 ["validate", "--sample", "s.csv"], id="sample-field-1e5000"),
    pytest.param({"model.json": REG2.read_text(), "s.csv": reg2_sample_with(2, 2, "1e5000")},
                 ["validate", "--sample", "s.csv"], id="sample-prediction-1e5000"),
    pytest.param({"model.json": PW2.read_text(), "s.csv": "x1,x2\n0,0\n0,1e5000\n"},
                 ["validate", "--sample", "s.csv"], id="box-sample-field-1e5000"),
    pytest.param({"model.json": CLS3.read_text()}, ["relevancy", "--instance", "1,1,1e5000"],
                 id="instance-1e5000"),
    pytest.param({"model.json": REG2.read_text()},
                 ["axp", "--instance", "1,1", "--delta", "1e-5000"], id="delta-1e-5000"),
]


@pytest.mark.parametrize("files,argv", HUGE_LITERALS)
def test_a_literal_past_the_digit_limit_exits_2_at_once(capsys, tmp_path, files, argv):
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    with cpu_limit(1):
        code = run_cli(argv + ["--model", str(tmp_path / "model.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error:") and "Traceback" not in err


# Rationals computed from in-limit literals: reg2's expected-value scores
# over the table values 1/9...9 (4,000 nines) and 1/7...73 (4,000 digits)
# have denominators of about 8,000 digits, past the limit, so every place
# a result becomes report text refuses it with exit 3 and writes no report.
def reg2_with_values(first, second):
    doc = json.loads(REG2.read_text())
    doc["table"][0]["value"], doc["table"][1]["value"] = first, second
    return doc


PAST_THE_LIMIT = reg2_with_values("1/" + "9" * 4000, "1/" + "7" * 3998 + "3")


@pytest.mark.parametrize("output", ["json", "table"])
@pytest.mark.parametrize("command", [
    ["shap", "--game", "expected"],
    ["shap", "--game", "expected", "--method", "cgt", "--epsilon", "1"],
    ["compare"]], ids=" ".join)
def test_a_result_past_the_digit_limit_exits_3(capsys, tmp_path, command, output):
    path = write_json(tmp_path, PAST_THE_LIMIT)
    assert run_cli(["validate", "--model", path]) == 0
    capsys.readouterr()
    with cpu_limit(1):
        code = run_cli(command + ["--model", path, "--instance", "1,1", "--output", output])
    out, err = capsys.readouterr()
    assert code == 3, err
    assert out == ""
    assert err.startswith("error: a result has more than 4300 digits") and "Traceback" not in err


def test_a_score_past_float_range_exits_3_in_table_output_only(capsys, tmp_path):
    # 10^400 is in the digit limit but past the largest float, which the
    # table's decimal column needs; JSON output reports it exactly.
    path = write_json(tmp_path, reg2_with_values("1e400", "3/2"))
    argv = ["shap", "--game", "expected", "--model", path, "--instance", "1,1"]
    with cpu_limit(1):
        assert run_cli(argv + ["--output", "json"]) == 0
        score = json.loads(capsys.readouterr().out)["results"]["scores"][0]["score"]
        assert abs(F(score)) > 10 ** 399
        assert run_cli(argv + ["--output", "table"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "too large for a float in table output" in err


def limit_tokens():
    """"p/q" tokens around Python's integer digit limit, read in full."""
    limit = sys.get_int_max_str_digits()
    for digits in (limit // 2 - 2, limit // 2, limit - 3, limit - 1):
        yield f"{'7' * digits}/{'3' * (limit - 1 - digits)}"
        yield f"-{'1' * digits}/{'9' * (limit - digits)}"
    yield "8" * limit


@pytest.mark.parametrize("token", [
    0, 7, -12, 10 ** 30, F(3, 4), F(-5), "0", "-0", "12", "-12", "0012", "3/16", "-3/16", "6/8",
    "-0/5", "007/0003", "1/0", "1/", "/2", "-", "--1/2", "+1/2", " 1/2", "1/2 ", "1_0/3", "1/-2",
    "1/2/3", "0.5", "1e3", "-1.5e-2", "x", "", "١/٢", "²/3", *limit_tokens()],
    ids=lambda t: repr(t)[:24])
def test_the_box_token_fast_path_reads_what_parse_rational_reads(token):
    try:
        expected = parse_rational(token)
    except ValidationError:
        with pytest.raises(ValidationError):
            _rational(token)
        return
    value = _rational(token)
    assert value == expected and type(value) is F
