"""Integral discrete values load as ints.

Domain values, tree edges, table and tree outputs and sample fields that
are integral load as Python ints, and every other rational as a Fraction.
These tests hold the loaded models and samples to their twins built through
the constructors from Fraction values: the twins compare equal, the types
are int exactly where a value is integral, and every subcommand reports the
same bytes on either.
"""

import contextlib
import io
import json
import random
from fractions import Fraction as F

import pytest

from shapxp import (
    DiscreteDomain,
    Feature,
    FeatureSpace,
    TabularModel,
    TreeLeaf,
    TreeModel,
    TreeNode,
    ValidationError,
    load_model,
    load_sample,
)
from shapxp import cli
from shapxp.modelio import parse_value, read_discrete
from shapxp.models import labelled_points
from conftest import FIXTURES
from randmodels import random_sample, random_table, random_tree_model

SPELLINGS = ("int", "decimal", "string", "ratio")
COMMANDS = (
    ["validate"], ["relevancy"], ["axp"], ["cxp"],
    ["enumerate", "--kind", "axp"], ["enumerate", "--kind", "cxp"],
    ["shap", "--game", "expected"], ["shap", "--game", "waxp"],
    ["shap", "--game", "waxp", "--method", "cgt", "--epsilon", "1/4"],
    ["compare"],
)


def fractional(x):
    """A number as a Fraction; a label as itself."""
    return x if isinstance(x, str) else F(x)


def spelled(x, how):
    """A JSON token for x: an int when integral, a decimal when exact in
    binary, else (and for "string" and "ratio") a "p" or "p/q" string,
    "ratio" with both terms doubled. A label is itself."""
    if isinstance(x, str):
        return x
    if how == "int" and x.denominator == 1:
        return x.numerator
    if how == "decimal" and float(x) == x:
        return float(x)
    if how == "ratio":
        return f"{2 * x.numerator}/{2 * x.denominator}"
    return str(x)


def field(x, how):
    """x as sample text: a JSON token's text, a decimal as written in JSON."""
    token = spelled(x, how)
    return repr(token) if isinstance(token, float) else str(token)


def fraction_twin(model):
    """The model with every number a Fraction, built through the constructors."""
    space = FeatureSpace(tuple(
        Feature(f.id, f.name, DiscreteDomain(tuple(map(fractional, f.domain.values))))
        for f in model.space.features))
    if isinstance(model, TabularModel):
        return TabularModel(space, tuple(map(fractional, model.outputs)), model.value_kind)
    nodes = {nid: TreeLeaf(fractional(n.value)) if isinstance(n, TreeLeaf) else
             TreeNode(n.feature, tuple((tuple(map(fractional, values)), child)
                                       for values, child in n.edges))
             for nid, n in model.nodes.items()}
    return TreeModel(space, nodes, model.root, model.value_kind)


def document(model, rng, how):
    """The model's JSON document, each number spelled ``how`` (or, for
    "mixed", in a spelling drawn per token)."""
    def token(x):
        return spelled(x, rng.choice(SPELLINGS) if how == "mixed" else how)
    doc = {"version": 1, "value_kind": model.value_kind,
           "features": [{"id": f.id, "name": f.name,
                         "domain": {"type": "discrete",
                                    "values": [token(x) for x in f.domain.values]}}
                        for f in model.space.features]}
    if isinstance(model, TabularModel):
        doc.update(kind="tabular", table=[{"point": [token(x) for x in p], "value": token(y)}
                                          for p, y in labelled_points(model)])
    else:
        doc.update(kind="tree", root=model.root, nodes=[
            {"id": nid, "value": token(n.value)} if isinstance(n, TreeLeaf) else
            {"id": nid, "feature": n.feature,
             "edges": [{"values": [token(x) for x in values], "child": child}
                       for values, child in n.edges]}
            for nid, n in model.nodes.items()])
    return doc


def sample_text(model, sample, rng, how):
    names = [f.name for f in model.space.features]
    def text(x):
        return field(x, rng.choice(SPELLINGS) if how == "mixed" else how)
    lines = [",".join(names + ["prediction"])]
    lines += [",".join(map(text, (*row, y))) for row, y in zip(sample.rows, sample.predictions)]
    return "\n".join(lines) + "\n"


def random_models(rng):
    """Tables and trees over spaces of labels and rationals, or of the
    integers 0..k-1 (with Fraction outputs), numeric and categorical, each
    as its Fraction twin."""
    for n in range(24):
        categorical = n % 4 == 3
        if n % 2:
            space, outputs, kind = random_table(rng, max_m=3, categorical=categorical)
            model = TabularModel(space, outputs, kind)
        else:
            model = random_tree_model(rng, rng.randint(1, 4), categorical=categorical,
                                      mixed=n % 3 == 0)
        yield fraction_twin(model)


def numbers_are_ints_exactly_when_integral(values):
    return all(type(x) is (int if x.denominator == 1 else F)
               for x in values if not isinstance(x, str))


def discrete_values(model):
    """The model's domain values, its tree edge values, and its numeric outputs."""
    values = [x for f in model.space.features for x in f.domain.values]
    if isinstance(model, TreeModel):
        values += [x for n in model.nodes.values() if isinstance(n, TreeNode)
                   for group, _ in n.edges for x in group]
    if model.value_kind == "numeric":
        values += [y for _, y in labelled_points(model)]
    return values


def reports(monkeypatch, model_path, sample_path, instance, model=None, sample=None):
    """(exit code, output, errors) of every command, on the model's space and
    on the sample, read from the files or, when ``model`` is given, with
    ``model`` and ``sample`` in their place."""
    if model is not None:
        monkeypatch.setattr(cli, "load_model", lambda path: model)
        monkeypatch.setattr(cli, "load_sample", lambda path, loaded: sample)
    out = []
    for command in COMMANDS:
        argv = command + ["--model", str(model_path), "--output", "json"]
        sampled = ["--sample", str(sample_path)]
        if command != ["validate"]:
            argv += [f"--instance={instance}"]  # a point may start with "-"
            sampled += ["--agnostic"]
        for extra in ([], sampled):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run_cli(argv + extra)
            out.append((code, stdout.getvalue(), stderr.getvalue()))
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("how", SPELLINGS + ("mixed",))
def test_integral_values_load_as_ints_and_report_as_their_fraction_twins(
        tmp_path, monkeypatch, how):
    rng = random.Random(f"integral:{how}")
    for k, twin in enumerate(random_models(rng)):
        path, sample_path = tmp_path / f"m{k}.json", tmp_path / f"s{k}.csv"
        path.write_text(json.dumps(document(twin, rng, how)))
        model = load_model(path)
        assert model == twin
        assert numbers_are_ints_exactly_when_integral(discrete_values(model))
        assert all(type(x) in (str, F) for x in discrete_values(twin))
        sample = random_sample(rng, twin)
        sample_path.write_text(sample_text(twin, sample, rng, how))
        loaded = load_sample(sample_path, model)
        assert loaded == sample
        assert numbers_are_ints_exactly_when_integral(
            [x for row in loaded.rows for x in row] + list(loaded.predictions))
        point = rng.choice([p for p, _ in labelled_points(twin)])
        instance = ",".join(field(x, rng.choice(SPELLINGS)) for x in point)
        assert (reports(monkeypatch, path, sample_path, instance)
                == reports(monkeypatch, path, sample_path, instance, twin, sample))


@pytest.mark.parametrize("text", ["0", "007", "-0", "-3", "+1", " 1", "1/2", "2/2", "1_0",
                                  "١", "--1", "-", "²", "1" * 4301])
def test_a_string_reads_as_parse_value_reads_it(text):
    # Digit strings are read by int(); past the digit limit both keep the text.
    value, parsed = read_discrete(text), parse_value(text)
    assert value == parsed
    integral = isinstance(parsed, F) and parsed.denominator == 1
    assert type(value) is (int if integral else type(parsed))


def without_last_entry(doc):
    doc["table"].pop()


def with_edge_value_5(doc):
    doc["nodes"][2]["edges"][1]["values"] = [5]


@pytest.mark.parametrize("name,edit,message", [
    ("reg2.json", without_last_entry,
     "table is not total: missing 1 points, e.g. (Fraction(1, 1), Fraction(1, 1))"),
    ("reg2_tree.json", with_edge_value_5, "edge value Fraction(5, 1) outside domain of feature 2"),
], ids=["a-missing-point", "an-edge-value-outside-the-domain"])
def test_an_error_shows_a_loaded_integer_as_a_fraction(tmp_path, name, edit, message):
    doc = json.loads((FIXTURES / name).read_text())
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as exc:
        load_model(path)
    assert str(exc.value) == message


def test_a_disagreeing_prediction_is_shown_as_fractions(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x1,x2,prediction\n0,0,-1/2\n1,1,7\n")
    with pytest.raises(ValidationError) as exc:
        load_sample(path, load_model(FIXTURES / "reg2.json"))
    assert str(exc.value) == (f"{path}:3: prediction Fraction(7, 1) disagrees with the "
                              "model output Fraction(1, 1)")
