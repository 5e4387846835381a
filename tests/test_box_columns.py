"""Box models held as columns. Each cell's integer row is built from the
columns for the cells a call reads, and the expected-value game's table
comes from the model in one pass. The code these replaced is kept here as
the oracle: each cell's integer form as a per-cell record once computed
it, and the table filled one coalition at a time as ``Game.table()``
filled it for a box model."""

import json
import random
from fractions import Fraction as F
from itertools import chain
from operator import mul, sub

import pytest

from shapxp import (
    BoxPiecewiseModel,
    DomainError,
    ExplanationProblem,
    SimilarityConfig,
    ValidationError,
    enumerate_points,
    load_model,
    make_instance,
)
from shapxp.cli import run_cli
from shapxp.games import expected_game, shapley_exact, shapley_via_permutations
from shapxp.models import _over_lcd, conditional_expectation, guard_slices
from shapxp.modelio import model_from_dict
from shapxp.similarity import Dissimilar
from boxmodels import (HI, LO, box_model, cells_of, model_on, prime_stacked_model,
                       random_grid_model, random_kd_model)
from conftest import FIXTURES
from randmodels import mask_of, subsets
from report_corpus import document
from test_box_partition import staircase_boxes
from test_model_primitives import reference_box_slice_outputs
from test_models import bool_space


def reference_integers(cell):
    """The cell over E, the lcm of the denominators of its bounds, intercept
    and coefficients: (E, a0*E, (a_j*E), the ends (min(a_j*lo_j,
    a_j*hi_j)*E^2) and (max(...)*E^2), the spans ((hi_j - lo_j)*E), and
    its extremes over the whole box over E^2), as the cell record computed it."""
    m = len(cell.coeffs)
    (a0, *rest), scale = _over_lcd((cell.intercept, *cell.coeffs, *chain(*cell.box)))
    coeffs, lows, highs = rest[:m], rest[m::2], rest[m + 1::2]
    at_lo, at_hi = list(map(mul, coeffs, lows)), list(map(mul, coeffs, highs))
    low_ends, high_ends = tuple(map(min, at_lo, at_hi)), tuple(map(max, at_lo, at_hi))
    return (scale, a0, tuple(coeffs), low_ends, high_ends, tuple(map(sub, highs, lows)),
            a0 * scale + sum(low_ends), a0 * scale + sum(high_ends))


def reference_expected_table(model, v):
    """The expected-value game's table as a box model's game filled it
    before it had a kernel: one conditional expectation per coalition
    mask (bit j: feature j + 1), over their least common denominator."""
    instance = make_instance(model, v)
    ids = model.space.ids
    return _over_lcd(conditional_expectation(model, instance, [i for i in ids if mask >> i - 1 & 1])
                     for mask in range(1 << model.space.m))


def staircase_model(rng, m):
    """A staircase on cuts with denominators 3, 5 and 7, its flat third axis
    (at m = 3) in a random place."""
    inner = sorted(rng.sample([F(k, d) for d in (3, 5, 7) for k in range(1 - d, d)], 5))
    boxes = staircase_boxes([LO, *sorted(set(inner)), HI])
    if m == 3:
        j = rng.randrange(3)
        boxes = [box[:j] + [(LO, HI)] + box[j:] for box in boxes]
    return model_on(rng, boxes)


def layouts():
    """(name, model): grids, kd layouts, staircases and a prime-stacked layout."""
    rng = random.Random(20261021)
    for n in range(4):
        yield f"grid{n}", random_grid_model(rng, 2 + n % 2)
        yield f"kd{n}", random_kd_model(rng, 2 + n % 3, rng.randint(4, 24))
        yield f"staircase{n}", staircase_model(rng, 2 + n % 2)
    yield "prime", prime_stacked_model(rng, 64)


LAYOUTS = dict(layouts())


def instances(model, rng):
    """Points of the model's space: off the lattice, on cut lines of its
    cells, at the domain top and at its bottom, and mixtures of these."""
    cuts = [sorted({x for c in cells_of(model) for x in c.box[j]}) for j in range(model.space.m)]
    off = [F(1, 3), F(-5, 7), F(2, 9)]
    for pools in ([off], [None], [[HI]], [[LO]], [off, None, [HI]], [off, None, [HI]]):
        yield tuple(rng.choice(rng.choice([axis if pool is None else pool for pool in pools]))
                    for axis in cuts)


@pytest.mark.parametrize("name", LAYOUTS)
def test_the_column_rows_equal_the_cell_integers(name):
    """Every cell in any order, one cell, a third of them and repeats, each
    read first and after the reads before it, on a model read from its
    document (shared values) and one built from records."""
    model = LAYOUTS[name]
    expected = [reference_integers(cell) for cell in cells_of(model)]
    rng = random.Random(name)
    for twin in (model_from_dict(json.loads(json.dumps(document(model)))),
                 box_model(model.space, cells_of(model))):
        order = list(range(len(expected)))
        rng.shuffle(order)
        reads = [order, order[:1], order[:len(order) // 3], [order[0]] * 2, order[::-1],
                 sorted(order)]
        for cells in reads:
            fresh = BoxPiecewiseModel(twin.space, twin.bounds, twin.affines)
            assert fresh._integers(cells) == [expected[k] for k in cells]
            assert twin._integers(cells) == [expected[k] for k in cells]


@pytest.mark.parametrize("name", LAYOUTS)
def test_the_slice_check_equals_the_eager_scan(name):
    """slice_holds stops at the first pinned cell whose closure extremes
    leave the band; its verdict is that of a scan over every cell's
    Fraction extremes, at every mask, at points on and off the cuts, under
    class equality, a band of width 0 and wider ones."""
    model = LAYOUTS[name]
    rng = random.Random(name)
    for v in instances(model, rng):
        y0 = model.output(v)
        deltas = [None, F(0), F(1, 4), F(rng.randrange(1, 12), rng.randrange(1, 12))]
        for fixed in map(frozenset, subsets(model.space.ids)):
            outputs = list(reference_box_slice_outputs(model, v, fixed))
            for delta in deltas:
                dissimilar = Dissimilar(y0, delta)
                assert model.slice_holds(v, mask_of(fixed), dissimilar) == \
                    any(map(dissimilar, outputs)), (v, delta, fixed)


@pytest.mark.parametrize("name", LAYOUTS)
def test_the_expected_table_equals_the_per_coalition_fill(name):
    model = LAYOUTS[name]
    rng = random.Random(name)
    for v in instances(model, rng):
        fresh = BoxPiecewiseModel(model.space, model.bounds, model.affines)  # no rows yet
        assert fresh.expected_table(v) == reference_expected_table(model, v), v
        assert fresh.expected_table(v) == model.expected_table(v)


@pytest.mark.parametrize("name", LAYOUTS)
def test_expected_scores_equal_the_permutation_oracle(name):
    model = LAYOUTS[name]
    rng = random.Random(name)
    for v in list(instances(model, rng))[:4]:
        problem = ExplanationProblem(model, make_instance(model, v), SimilarityConfig())
        game = expected_game(problem)
        game.kernel = None  # the oracle evaluates each coalition through the charfn
        assert shapley_exact(expected_game(problem)).scores == \
            shapley_via_permutations(game).scores


def test_validate_builds_no_integer_row(monkeypatch, capsys, tmp_path):
    """Nor do loading, comparing, hashing, printing or the work guard."""
    kd = tmp_path / "kd.json"
    kd.write_text(json.dumps(document(LAYOUTS["kd2"])))

    def refused(*args):
        raise AssertionError("built an integer row")

    monkeypatch.setattr(BoxPiecewiseModel, "_integers", refused)
    for path, cells in ((FIXTURES / "pw2.json", 3), (kd, len(LAYOUTS["kd2"].affines[0]))):
        assert run_cli(["validate", "--model", str(path), "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"] == {"ok": True, "cells": cells}
        model, twin = load_model(path), load_model(path)
        assert model == twin and hash(model) == hash(twin) and "bounds=" in repr(model)
        guard_slices(model, 4, "coalition table")
        assert model._rows == {}


def test_a_loaded_model_equals_the_one_built_from_its_columns():
    """Read from its document, each layout equals the model built from its
    cells in order, hashes as it does, and gives those cells back."""
    for name, model in LAYOUTS.items():
        loaded = model_from_dict(json.loads(json.dumps(document(model))))
        built = box_model(model.space, cells_of(model))
        assert loaded == built == model and hash(loaded) == hash(built), name
        assert cells_of(loaded) == cells_of(built) == cells_of(model), name


def test_unknown_features_and_values_outside_their_domain_are_refused():
    space = bool_space(2)
    assert list(enumerate_points(space, {1: 1})) == [(1, 0), (1, 1)]
    with pytest.raises(DomainError, match=r"^constraint on unknown feature 3$"):
        list(enumerate_points(space, {3: 0}))
    with pytest.raises(DomainError, match=r"^constraint value 2 outside domain of feature 2$"):
        list(enumerate_points(space, {2: 2}))
    model = LAYOUTS["grid0"]
    instance = make_instance(model, (F(1, 3), HI))
    assert conditional_expectation(model, instance, [2]) == model.slice_expectation(
        instance.point, mask_of([2]))
    with pytest.raises(DomainError, match=r"^unknown feature id 0$"):
        conditional_expectation(model, instance, [0])
    outside = instance._replace(point=(F(1, 3), F(2)))
    with pytest.raises(DomainError, match=r"^value Fraction\(2, 1\) outside domain of feature 2$"):
        conditional_expectation(model, outside, [2])


def test_the_column_constructor_checks_its_shape():
    model = LAYOUTS["grid0"]
    with pytest.raises(ValidationError, match="4 bound and 3 affine columns"):
        BoxPiecewiseModel(model.space, model.bounds[:3], model.affines)
    with pytest.raises(ValidationError, match="of one length"):
        BoxPiecewiseModel(model.space, model.bounds, (model.affines[0][1:], *model.affines[1:]))


def short_box(doc):
    doc["cells"][2]["box"] = doc["cells"][2]["box"][:1]


def bad_token(doc):
    doc["cells"][1]["affine"][0] = "x"


@pytest.mark.parametrize("edits,message", [
    ((short_box,), "model: cell 2: 'box' must list 2 [lo, hi] pairs"),
    ((bad_token,), "model: cell 1: 'x' is not a rational literal"),
    ((), "cell 0: interval [-5, 0) invalid for feature 1"),
], ids=["short box", "bad token", "interval"])
def test_the_loader_names_the_first_wrong_cell_before_any_interval(edits, message):
    """Each edited pw2.json also has cell 0's interval on feature 1 out of
    its domain: the cell loop reads every cell before the model checks the
    intervals, so a malformed later cell is named first."""
    doc = json.loads((FIXTURES / "pw2.json").read_text())
    doc["cells"][0]["box"][0] = [-5, 0]
    for edit in edits:
        edit(doc)
    with pytest.raises(ValidationError) as caught:
        model_from_dict(doc)
    assert str(caught.value) == message
