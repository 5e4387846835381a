"""Samples in the slot numbering.

A loaded sample compares its rows with the instance through int codes
(domain positions on a discrete space) and reads, checks and evaluates each
distinct line once. These tests hold the codes to the rows' values, and
the line memo to the loader's one-line-at-a-time errors.
"""

import json
import random
import warnings
from fractions import Fraction as F
from itertools import combinations

import pytest

from shapxp import (
    ExplanationProblem,
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
from shapxp.similarity import similar_value
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


def assert_codes_agree(coded, valued):
    """A problem over a coded sample and the same problem over the same
    rows coded from their values answer every query alike, and as the
    definition does."""
    assert coded.universe == valued.universe
    v = coded.instance.point
    masks = [set(p.universe.disagreements(v, _dissimilar(p))) for p in (coded, valued)]
    assert masks[0] == masks[1]
    basis = coded.contrastive_basis
    assert basis == valued.contrastive_basis
    expected = reference_cxps(coded)
    assert {frozenset(_ids(b)) for b in basis} == expected
    assert brute_force_cxps(coded) == expected
    for s in subsets(coded.feature_ids):
        assert is_waxp(coded, s) == is_waxp(valued, s) == reference_waxp(coded, s)
        assert (agnostic_support(coded, s) == agnostic_support(valued, s)
                == reference_support(coded, s))
    if expected and expected != {frozenset()}:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert set(map(frozenset, enumerate_cxps(coded))) == expected


def random_discrete_model(rng):
    kind = rng.choice(("table", "table_labels", "tree", "tree_labels", "tree_mixed"))
    if kind.startswith("table"):
        return TabularModel(*random_table(rng, categorical=kind == "table_labels"))
    return random_tree_model(rng, rng.randint(1, 4), categorical=kind == "tree_labels",
                             mixed=kind == "tree_mixed")


def drawn_rows(rng, points, v):
    """Rows from ``points`` with repeats; sometimes none holds the
    instance's value of feature 1, so that value has no code in the sample."""
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
        loaded = load_sample(path, model)
        assert loaded.index == model.space.indexes
        valued = Sample(tuple(map(tuple, loaded.rows)), loaded.predictions)
        problem = ExplanationProblem(model, make_instance(model, v),
                                     SimilarityConfig.class_equality())
        coded = rebuilt(problem, universe=loaded)
        assert_codes_agree(coded, rebuilt(problem, universe=valued))
        # an injective relabeling passes the codes through
        outputs = sorted({str(y) for _, y in points})
        mapping = {y: f"out{outputs.index(str(y))}" for _, y in points}
        assert_codes_agree(relabel_problem(coded, mapping),
                           relabel_problem(rebuilt(problem, universe=valued), mapping))


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
        # the same codes object labelled otherwise, as a hand-built sample may
        twice = Sample(loaded.rows + (loaded.rows[k],), loaded.predictions + (other,),
                       loaded.codes + (loaded.codes[k],), loaded.index)
        valued = Sample(twice.rows, twice.predictions)
        problem = ExplanationProblem(model, make_instance(model, v),
                                     SimilarityConfig.class_equality())
        assert_codes_agree(rebuilt(problem, universe=twice), rebuilt(problem, universe=valued))


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
        valued = Sample(tuple(map(tuple, loaded.rows)), loaded.predictions)
        v = rng.choice(points) if rng.random() < 0.5 else tuple(
            rng.choice(lattice) for _ in range(m))  # often on no row's values
        problem = ExplanationProblem(model, make_instance(model, v),
                                     SimilarityConfig.threshold(rng.choice((0, F(1, 4), 1))))
        assert_codes_agree(rebuilt(problem, universe=loaded), rebuilt(problem, universe=valued))


def test_a_hand_built_sample_codes_each_field_by_first_appearance():
    sample = Sample(((F(1, 2), "a"), (0, "b"), (F(1, 2), "a"), (F(2, 4), "b")),
                    (F(1), F(0), F(1), F(0)))
    assert sample.codes == ((0, 0), (1, 1), (0, 0), (0, 1))
    assert sample.codes[0] is sample.codes[2]  # equal rows share their codes
    assert sample._coded((F(1, 2), "c")) == [0, -1]
    # the codes are derived, so equality and repr ignore them
    assert sample == Sample(sample.rows, sample.predictions, ((9, 9),) * 4, ({}, {}))
    assert "codes" not in repr(sample) and "index" not in repr(sample)


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
    assert sample.rows[0] is sample.rows[2] and sample.codes[1] is sample.codes[4]
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
