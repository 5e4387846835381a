"""Samples in the slot numbering.

A loaded sample compares its rows with the instance value by value,
identity first, and reads, checks and evaluates each distinct line once.
These tests hold the comparisons to the rows' values, whether or not they
are the domain's own objects, and the line memo to the loader's
one-line-at-a-time errors.
"""

import json
import pickle
import random
import warnings
from fractions import Fraction as F
from itertools import combinations

import pytest

from shapxp import (
    DiscreteDomain,
    ExplanationProblem,
    Feature,
    FeatureSpace,
    Sample,
    SimilarityConfig,
    SizeLimitError,
    TabularModel,
    TreeModel,
    ValidationError,
    enumerate_cxps,
    is_waxp,
    load_model,
    load_sample,
    make_instance,
    relabel_problem,
)
from shapxp.cli import run_cli
from shapxp.explanations import _dissimilar, _ids, agnostic_support
from shapxp.models import labelled_points
from shapxp.similarity import Dissimilar, similar_value
from boxmodels import QUARTERS, random_grid_model, random_kd_model
from conftest import FIXTURES, cpu_limit, rebuilt
from randmodels import brute_force_cxps, random_table, random_tree_model, subsets

REG2_TREE = FIXTURES / "reg2_tree.json"


def spelled(x, rng):
    """A text token for a value, in one of its spellings."""
    if isinstance(x, str):
        return x
    x = F(x)
    k = rng.choice((1, 1, 2, 3))
    return str(x) if k == 1 else f"{x.numerator * k}/{x.denominator * k}"


def write_sample(path, model, rows, predictions, rng):
    names = [f.name for f in model.space.features]
    lines = [",".join(names + ["prediction"])]
    lines += [",".join([spelled(x, rng) for x in row] + [spelled(y, rng)])
              for row, y in zip(rows, predictions)]
    path.write_text("\n".join(lines) + "\n")
    return path


def reference_waxp(problem, features):
    """Sufficiency by its definition over the sample's rows, comparing
    values: every row with x_S = v_S has a similar prediction."""
    v, sample = problem.instance.point, problem.universe
    return all(similar_value(problem, y) for row, y in zip(sample.rows, sample.predictions)
               if all(row[i - 1] == v[i - 1] for i in features))


def reference_support(problem, features):
    v = problem.instance.point
    return sum(all(row[i - 1] == v[i - 1] for i in features) for row in problem.universe.rows)


def reference_cxps(problem):
    """The minimal sets whose freeing makes the rest insufficient."""
    ids = problem.feature_ids
    weak = [frozenset(c) for c in subsets(ids)
            if not reference_waxp(problem, set(ids) - set(c))]
    return {c for c in weak if not any(o < c for o in weak)}


def twin(sample):
    """The sample with equal rows and predictions that are new objects
    (small ints and one-letter strings aside, which CPython shares): what
    the identity test finds is then left to equality."""
    return Sample(*pickle.loads(pickle.dumps((sample.rows, sample.predictions))))


def assert_twins_agree(problem):
    """A problem over a sample and the same problem over its twin answer
    every query alike, and as the definition does."""
    other = rebuilt(problem, universe=twin(problem.universe))
    assert problem.universe == other.universe
    v = problem.instance.point
    masks = [set(p.universe.disagreements(v, _dissimilar(p))) for p in (problem, other)]
    assert masks[0] == masks[1]
    basis = problem.contrastive_basis
    assert basis == other.contrastive_basis
    expected = reference_cxps(problem)
    assert {frozenset(_ids(b)) for b in basis} == expected
    assert brute_force_cxps(problem) == expected
    for s in subsets(problem.feature_ids):
        assert is_waxp(problem, s) == is_waxp(other, s) == reference_waxp(problem, s)
        assert (agnostic_support(problem, s) == agnostic_support(other, s)
                == reference_support(problem, s))
    if expected and expected != {frozenset()}:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert set(map(frozenset, enumerate_cxps(problem))) == expected


def random_discrete_model(rng):
    kind = rng.choice(("table", "table_labels", "tree", "tree_labels", "tree_mixed"))
    if kind.startswith("table"):
        return TabularModel(*random_table(rng, categorical=kind == "table_labels"))
    return random_tree_model(rng, rng.randint(1, 4), categorical=kind == "tree_labels",
                             mixed=kind == "tree_mixed")


def drawn_rows(rng, points, v):
    """Rows from ``points`` with repeats; sometimes none holds the
    instance's value of feature 1, so no row matches it there."""
    if rng.random() < 0.3:
        points = [p for p in points if p[0][0] != v[0]] or points
    return [rng.choice(points) for _ in range(rng.randint(1, 3 * len(points)))]


def test_loaded_discrete_samples_agree_with_their_values(tmp_path):
    rng = random.Random(1808)
    for trial in range(120):
        model = random_discrete_model(rng)
        v = tuple(rng.choice(f.domain.values) for f in model.space.features)
        points = list(labelled_points(model))
        rows = drawn_rows(rng, points, v)
        path = write_sample(tmp_path / f"s{trial}.csv", model, *zip(*rows), rng)
        problem = ExplanationProblem(model, make_instance(model, v),
                                     SimilarityConfig.class_equality(), load_sample(path, model))
        assert all(x is f.domain.values[f.domain.index[x]]  # labels and rationals too
                   for row in problem.universe.rows for f, x in zip(model.space.features, row))
        assert_twins_agree(problem)
        # an injective relabeling keeps the rows
        outputs = sorted({str(y) for _, y in points})
        mapping = {y: f"out{outputs.index(str(y))}" for _, y in points}
        assert_twins_agree(relabel_problem(problem, mapping))


def test_one_point_labelled_two_ways_yields_both_masks(tmp_path):
    rng = random.Random(1809)
    for trial in range(60):
        model = random_discrete_model(rng)
        v = tuple(rng.choice(f.domain.values) for f in model.space.features)
        rows = drawn_rows(rng, list(labelled_points(model)), v)
        loaded = load_sample(write_sample(tmp_path / f"s{trial}.csv", model, *zip(*rows), rng),
                             model)
        k = rng.randrange(len(loaded))
        other = next(y for y in model._values() if y != loaded.predictions[k])
        # the same row object labelled otherwise, as a hand-built sample may
        twice = Sample(loaded.rows + (loaded.rows[k],), loaded.predictions + (other,))
        assert_twins_agree(ExplanationProblem(model, make_instance(model, v),
                                              SimilarityConfig.class_equality(), twice))


def test_loaded_box_samples_agree_with_their_values(tmp_path):
    rng = random.Random(1810)
    for trial in range(60):
        model = (random_grid_model if trial % 2 else random_kd_model)(rng, rng.randint(1, 3))
        m = model.space.m
        lattice = QUARTERS + [F(k, 8) for k in range(-7, 8, 2)]
        points = [tuple(rng.choice(lattice) for _ in range(m)) for _ in range(rng.randint(1, 6))]
        rows = [rng.choice(points) for _ in range(rng.randint(1, 20))]
        predictions = [model.output(row) for row in rows]
        loaded = load_sample(write_sample(tmp_path / f"s{trial}.csv", model, rows,
                                          predictions, rng), model)
        v = rng.choice(points) if rng.random() < 0.5 else tuple(
            rng.choice(lattice) for _ in range(m))  # often on no row's values
        assert_twins_agree(ExplanationProblem(
            model, make_instance(model, v),
            SimilarityConfig.threshold(rng.choice((0, F(1, 4), 1))), loaded))


def test_rows_equal_to_the_instance_but_not_the_same_objects_agree_with_it():
    """F(2, 4) and a label joined at run time are equal to the instance's
    F(1, 2) and "high", but other objects: a row that holds them agrees
    with the instance there, as a row of the domain's own objects does."""
    half, high = F(1, 2), "high"
    space = FeatureSpace((Feature(1, "x1", DiscreteDomain((0, half))),
                          Feature(2, "x2", DiscreteDomain(("low", high)))))
    model = TabularModel(space, (0, 0, 0, 1))  # 1 at (1/2, high) only
    label = "".join(["hi", "gh"])
    assert label == high and label is not high and F(2, 4) is not half
    own = Sample(((half, high), (0, high), (half, "low"), (0, "low")), (1, 0, 0, 0))
    equal = Sample(((F(2, 4), label), (0, label), (F(2, 4), "low"), (0, "low")), (1, 0, 0, 0))
    problem = ExplanationProblem(model, make_instance(model, (half, high)),
                                 SimilarityConfig.class_equality(), own)
    other = rebuilt(problem, universe=equal)
    expected = brute_force_cxps(problem)
    assert expected == reference_cxps(other) == {frozenset({1}), frozenset({2})}
    assert {frozenset(_ids(b)) for b in other.contrastive_basis} == expected
    for s in subsets(problem.feature_ids):
        assert (agnostic_support(other, s) == agnostic_support(problem, s)
                == reference_support(other, s))


def test_a_sample_is_its_rows_and_predictions():
    assert Sample.__slots__ == Sample._fields == ("rows", "predictions")
    with pytest.raises(TypeError):
        Sample(((0,),), (1,), ((0,),), ({0: 0},))


# ---------------------------------------------------------------------------
# The per-row forms of the sample quantifiers
# ---------------------------------------------------------------------------
#
# Sample.slice_outputs and agnostic_support run as C-level passes over the
# rows, and Sample.disagreements builds each mask in one. These are their
# forms of one Python step per row; the passes must give what they give,
# object for object.

def per_row_slice_outputs(sample, v, fixed):
    """The prediction of every row whose fields on ``fixed`` equal v's,
    compared as lists, so identity first."""
    axes = [i - 1 for i in fixed]
    want = [v[j] for j in axes]
    return (y for row, y in zip(sample.rows, sample.predictions)
            if [row[j] for j in axes] == want)


def per_row_support(problem, features):
    return sum(1 for _ in per_row_slice_outputs(problem.universe, problem.instance.point,
                                                features))


def per_row_disagreements(sample, v, dissimilar):
    """The disagreement mask of each distinct row, told apart by identity,
    that carries a dissimilar prediction, in first-appearance order."""
    distinct = {id(row): row for row, y in zip(sample.rows, sample.predictions) if dissimilar(y)}
    return [sum(1 << j for j, (x, w) in enumerate(zip(row, v)) if not (x is w or x == w))
            for row in distinct.values()]


def respelled_value(x):
    """A new object equal to x: a Fraction over a doubled denominator, a
    label joined at run time, an int past CPython's small-int cache."""
    if isinstance(x, str):
        return "".join(list(x))
    if isinstance(x, F):
        return F(2 * x.numerator, 2 * x.denominator)
    return int(str(x))


def quantifier_problems(rng):
    """Problems over hand-built samples of int, Fraction and str fields:
    rows repeat as one object and as equal copies, some fields are equal
    to the instance's value but other objects, and on some feature the
    instance may hold a value no row has."""
    for _ in range(80):
        m = rng.randint(1, 4)
        pools = [(0, 1, 2), (F(1, 2), F(3, 2), F(-7, 3)), ("lo", "mid", "hi"),
                 (300, 301, -400)]
        space = FeatureSpace(tuple(  # feature 1 takes two values or more
            Feature(j, f"x{j}", DiscreteDomain(tuple(rng.sample(rng.choice(pools),
                                                                rng.randint(1 + (j == 1), 3)))))
            for j in range(1, m + 1)))
        outputs = [1000] + [rng.choice((0, 1, F(5, 2))) for _ in range(space.size - 1)]
        model = TabularModel(space, outputs)
        v = tuple(rng.choice(f.domain.values) for f in space.features)
        points = list(labelled_points(model))
        absent = rng.randrange(m)
        if rng.random() < 0.3:
            points = [p for p in points if p[0][absent] != v[absent]] or points
        rows, predictions = [], []
        for _ in range(rng.randint(1, 40)):
            row, y = rng.choice(points)
            if rng.random() < 0.3:  # the same values as other objects
                row, y = tuple(map(respelled_value, row)), respelled_value(y)
            if rng.random() < 0.2:  # a prediction the model does not give here
                y = rng.choice((0, 1, F(5, 2), 1000))
            rows.append(row)
            predictions.append(y)
        sample = Sample(tuple(rows), tuple(predictions))
        for similarity in (SimilarityConfig.class_equality(), SimilarityConfig.threshold(1)):
            yield ExplanationProblem(model, make_instance(model, v), similarity, sample)


def test_the_sample_quantifiers_agree_with_their_per_row_forms():
    rng = random.Random(4545)
    fixed_sizes = set()
    for problem in quantifier_problems(rng):
        sample, v = problem.universe, problem.instance.point
        for s in subsets(problem.feature_ids):
            fixed_sizes.add(min(len(s), 2))
            for fixed in (frozenset(s), list(s)[::-1]):
                assert list(map(id, sample.slice_outputs(v, fixed))) == \
                    list(map(id, per_row_slice_outputs(sample, v, fixed)))
            assert agnostic_support(problem, s) == per_row_support(problem, s)
        dissimilar = _dissimilar(problem)
        assert list(sample.disagreements(v, dissimilar)) == \
            per_row_disagreements(sample, v, dissimilar)
    assert fixed_sizes == {0, 1, 2}


def test_a_row_yields_its_mask_once_whatever_it_carries():
    """A row object carrying a similar and a dissimilar prediction yields
    its mask once, in either order, and so does one carrying two
    dissimilar ones; an equal row that is another object is another row."""
    row, other, copy, v = (0, 1), (1, 1), tuple([0, 1]), (0, 0)
    assert copy == row and copy is not row
    dissimilar = Dissimilar(0)
    cases = [(((row, row, other), (0, 1, 0)), [0b10]),
             (((row, row, other), (1, 0, 0)), [0b10]),
             (((row, other, row), (1, 2, 2)), [0b10, 0b11]),
             (((row, copy, row), (1, 1, 2)), [0b10, 0b10])]
    for (rows, predictions), masks in cases:
        sample = Sample(rows, predictions)
        assert list(sample.disagreements(v, dissimilar)) == masks
        assert per_row_disagreements(sample, v, dissimilar) == masks


def test_a_single_field_compares_identity_first():
    """A field that is the instance's own object matches it without an
    ``__eq__`` call, and one that only equals it matches through one, as
    in the per-row list comparison: a bare field compared by ``==``
    would call ``__eq__`` on every row."""
    class Counted(F):
        calls = 0

        def __eq__(self, other):
            Counted.calls += 1
            return super().__eq__(other)

        __hash__ = F.__hash__

    half = Counted(1, 2)
    sample = Sample(((half,), (F(2, 4),), (half,), (0,)), (1, 2, 3, 4))
    counts = []
    for fixed in ([1], [1, 1]):
        for slice_outputs in (per_row_slice_outputs, Sample.slice_outputs):
            Counted.calls = 0
            assert list(slice_outputs(sample, (half,), fixed)) == [1, 2, 3]
            counts.append(Counted.calls)
    # F(2, 4) costs a call per axis; 0 costs one, as its first axis differs
    assert counts == [2, 2, 3, 3]


def test_an_error_after_a_blank_line_names_its_own_line(tmp_path):
    model = load_model(FIXTURES / "reg2.json")
    path = tmp_path / "s.csv"
    path.write_text("x1,x2\n\n0,1\n\n0,5\n")
    with pytest.raises(ValidationError, match=r"s\.csv:5: value .+ outside domain"):
        load_sample(path, model)
    path.write_text("\n\nx1,x2\n0,1\n0,1,7\n")
    with pytest.raises(ValidationError, match=r"s\.csv:5: expected 2 fields, got 3"):
        load_sample(path, model)


# ---------------------------------------------------------------------------
# The line memo
# ---------------------------------------------------------------------------

def test_a_bad_line_after_many_good_repeats_is_named_by_its_own_line(tmp_path):
    model = load_model(REG2_TREE)
    path = tmp_path / "s.csv"
    path.write_text("x1,x2\n" + "0,1\n" * 60 + "0,5\n")
    with pytest.raises(ValidationError, match=r"s\.csv:62: value .+ outside domain"):
        load_sample(path, model)
    path.write_text("x1,x2,prediction\n" + "0,1,3/2\n" * 30 + "0,1,1\n")
    with pytest.raises(ValidationError, match=r"s\.csv:32: prediction .* disagrees"):
        load_sample(path, model)


def test_a_bad_line_that_repeats_is_named_at_its_first_occurrence(tmp_path):
    model = load_model(REG2_TREE)
    path = tmp_path / "s.csv"
    path.write_text("x1,x2\n0,1\n1,1,1\n0,0\n1,1,1\n")
    with pytest.raises(ValidationError, match=r"s\.csv:3: expected 2 fields, got 3"):
        load_sample(path, model)


def test_a_large_sample_the_columns_refuse_raises_within_two_seconds(tmp_path):
    """65,536 distinct lines of 16 binary fields, the last one ending in 2:
    the line loop reads each field's tokens once before it names that line."""
    model = tmp_path / "chain.json"
    model.write_text(json.dumps(chain_tree_doc(16, 16)))
    lines = [",".join(format(k, "016b")) for k in range(1 << 16)]
    lines[-1] = lines[-1][:-1] + "2"
    path = tmp_path / "s.csv"
    path.write_text(",".join(f"x{j}" for j in range(1, 17)) + "\n" + "\n".join(lines) + "\n")
    model = load_model(model)
    with cpu_limit(2), pytest.raises(ValidationError) as caught:
        load_sample(path, model)
    assert str(caught.value) == \
        f"{path}:65537: value Fraction(2, 1) outside domain of feature 16 (x16)"


@pytest.mark.parametrize("kind", [TreeModel, TabularModel])
def test_each_distinct_line_is_evaluated_once(tmp_path, monkeypatch, kind):
    model = load_model(REG2_TREE if kind is TreeModel else FIXTURES / "reg2.json")
    reads = []
    original = kind._read

    def counted(self, slot):
        reads.append(slot)
        return (original.fget(self) if isinstance(original, property)
                else original.__get__(self))(slot)

    monkeypatch.setattr(kind, "_read", counted)
    path = tmp_path / "s.csv"
    # 1,1 and 1.0,1 name one point in two spellings: two distinct lines
    lines = ["0,1", "1,1", "0,1", "1.0,1", "1,1", "0,1", "1.0,1"]
    path.write_text("x1,x2\n" + "\n".join(lines) + "\n")
    sample = load_sample(path, model)
    assert len(reads) == len(set(lines)) == 3
    assert len(sample) == len(lines)
    assert sample.rows[0] is sample.rows[2] and sample.rows[1] is sample.rows[4]
    assert sample.predictions == (F(3, 2), 1, F(3, 2), 1, 1, F(3, 2), 1)


# ---------------------------------------------------------------------------
# The basis's minimality filter past the closure route
# ---------------------------------------------------------------------------

def chain_tree_doc(m, tested):
    """0 exactly when features 1..tested are all 0, else 1: any row that
    sets some of them disagrees with the all-zero instance on just those."""
    nodes = [{"id": k, "feature": k + 1, "edges": [{"values": [0], "child": k + 1},
                                                    {"values": [1], "child": -k - 1}]}
             for k in range(tested)]
    nodes += [{"id": tested, "value": 0}] + [{"id": -k - 1, "value": 1} for k in range(tested)]
    features = [{"id": j, "name": f"x{j}", "domain": {"type": "discrete", "values": [0, 1]}}
                for j in range(1, m + 1)]
    return {"version": 1, "kind": "tree", "features": features, "root": 0, "nodes": nodes}


def every_k_of(n, k, m):
    return "\n".join(",".join("1" if j in ones else "0" for j in range(m))
                     for ones in combinations(range(n), k))


def test_a_wide_basis_past_its_comparison_guard_exits_3(tmp_path, capsys):
    model = tmp_path / "chain.json"
    model.write_text(json.dumps(chain_tree_doc(21, 16)))
    header = ",".join(f"x{j}" for j in range(1, 22))
    sample = tmp_path / "s.csv"
    sample.write_text(header + "\n" + every_k_of(16, 8, 21) + "\n")  # 12,870 masks
    argv = ["relevancy", "--model", str(model), "--instance", ",".join(["0"] * 21),
            "--agnostic", "--sample", str(sample)]
    with cpu_limit(3):
        assert run_cli(argv) == 3
    assert "guarded at 4194304 set comparisons" in capsys.readouterr().err


def test_a_wide_basis_within_its_guard_is_kept_whole(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_tree_doc(21, 12)))
    model = load_model(path)
    header = ",".join(f"x{j}" for j in range(1, 22))
    sample = tmp_path / "s.csv"
    sample.write_text(header + "\n" + every_k_of(12, 6, 21) + "\n")  # 924 masks
    problem = ExplanationProblem(model, make_instance(model, (0,) * 21),
                                 SimilarityConfig.class_equality(), load_sample(sample, model))
    assert problem.contrastive_basis == tuple(
        sum(1 << j for j in c) for c in combinations(range(12), 6))
    sample.write_text(header + "\n" + every_k_of(14, 7, 21) + "\n")  # 3,432 masks
    with pytest.raises(SizeLimitError, match="21 features"):
        rebuilt(problem, universe=load_sample(sample, model)).contrastive_basis
