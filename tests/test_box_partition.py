"""The box partition check against the midpoint-grid check it replaced.

``grid_witness`` is the earlier check, kept verbatim as the reference: it
refines all cell bounds into a grid and asks every grid box's midpoint for
its owners, which costs up to (2k)^m membership scans. The loader's check
must reach the same decision on every layout, name a point that really
lies in no cell or in several, and stay polynomial where the grid is not.
``holds`` is the half-open rule on Fraction bounds, the reference for
membership by slab rank.
"""

import json
import random
import re
from fractions import Fraction as F
from itertools import product
from math import prod

import pytest

from shapxp import BoxPiecewiseModel, Cell, Feature, FeatureSpace, IntervalDomain, ValidationError
from shapxp.cli import run_cli
from boxmodels import QUARTERS, kd_boxes, random_grid_model, random_kd_model
from conftest import cpu_limit, rebuilt


# ---------------------------------------------------------------------------
# Reference: the midpoint-grid check
# ---------------------------------------------------------------------------

def holds(cell, point, axes, tops):
    box = cell.box
    for j in axes:
        lo, hi = box[j]
        x = point[j]
        if x < lo or x > hi or (x == hi and hi != tops[j]):
            return False
    return True


def grid_witness(space, cells):
    """The first grid midpoint, in lexicographic order, that lies in no
    cell or in several, with its owners; None for a partition."""
    m = space.m
    tops = tuple(f.domain.hi for f in space.features)
    axes_mids = []
    for j in range(m):
        dom = space.domain(j + 1)
        cuts = {dom.lo, dom.hi}
        for cell in cells:
            cuts.update(cell.box[j])
        cuts = sorted(cuts)
        axes_mids.append([(a + b) / 2 for a, b in zip(cuts, cuts[1:])])
    axes = range(m)
    for mid_point in product(*axes_mids):
        owners = [k for k, cell in enumerate(cells)
                  if holds(cell, mid_point, axes, tops)]
        if len(owners) != 1:
            return mid_point, owners
    return None


# ---------------------------------------------------------------------------
# Layouts
# ---------------------------------------------------------------------------

LO, HI = F(-1), F(1)
LATTICE = [F(k, 8) for k in range(-8, 9)]


def unit_space(m):
    return FeatureSpace(tuple(Feature(j + 1, f"x{j + 1}", IntervalDomain(LO, HI))
                              for j in range(m)))


def with_affines(rng, boxes):
    """Cells on the boxes; the first one has slope 1, so no model is constant."""
    m = len(boxes[0])
    return [Cell(tuple(box), F(rng.randint(-3, 3)),
                 tuple(F(1) if k == 0 else F(rng.randint(-2, 2)) for _ in range(m)))
            for k, box in enumerate(boxes)]


def grid_boxes(rng, m):
    axes = []
    for _ in range(m):
        cuts = [LO] + sorted(rng.sample(LATTICE[1:-1], rng.randint(0, 3))) + [HI]
        axes.append(list(zip(cuts, cuts[1:])))
    return [list(box) for box in product(*axes)]


def moved(rng, boxes):
    """The boxes with one bound of one cell moved to another lattice value
    that keeps the cell's interval non-empty: a gap, an overlap or both."""
    boxes = [list(box) for box in boxes]
    while True:
        k, j, end = rng.randrange(len(boxes)), rng.randrange(len(boxes[0])), rng.randrange(2)
        lo, hi = boxes[k][j]
        if end == 0:
            options = [x for x in LATTICE if x < hi and x != lo]
        else:
            options = [x for x in LATTICE if x > lo and x != hi]
        if options:
            x = rng.choice(options)
            boxes[k][j] = (x, hi) if end == 0 else (lo, x)
            return boxes


def layouts():
    rng = random.Random(20261018)
    for n in range(240):
        m = 1 + n % 3
        boxes = kd_boxes(rng, m, rng.randint(1, 9), LATTICE) if n % 2 else grid_boxes(rng, m)
        if n % 4 >= 2:
            boxes = moved(rng, boxes)
        yield m, with_affines(rng, boxes)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

WITNESS = re.compile(r"cells do not partition the space: point \((.*)\) lies in "
                     r"(no cell|cells \[(.*)\])")


def named_witness(message):
    """The point and the owners that a partition error names."""
    found = WITNESS.search(message)
    assert found, message
    point = tuple(F(int(a), int(b)) for a, b in re.findall(r"Fraction\((-?\d+), (\d+)\)",
                                                            found.group(1)))
    owners = [int(k) for k in found.group(3).split(",")] if found.group(3) else []
    return point, owners


def owners_by_holds(space, cells, point):
    tops = tuple(f.domain.hi for f in space.features)
    return [k for k, cell in enumerate(cells) if holds(cell, point, range(space.m), tops)]


def assert_true_witness(space, cells, message):
    point, named = named_witness(message)
    assert len(point) == space.m
    space.check_point(point)
    owners = owners_by_holds(space, cells, point)
    assert owners == named
    assert len(owners) != 1


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def test_the_check_decides_as_the_grid_does_and_names_a_true_witness():
    decisions = {True: 0, False: 0}
    kinds = set()
    for m, cells in layouts():
        space = unit_space(m)
        reference = grid_witness(space, cells)
        try:
            BoxPiecewiseModel(space, tuple(cells))
        except ValidationError as exc:
            assert reference is not None, (cells, str(exc))
            assert_true_witness(space, cells, str(exc))
            kinds.add(bool(named_witness(str(exc))[1]))
            decisions[False] += 1
        else:
            assert reference is None, (cells, reference)
            decisions[True] += 1
    # Both decisions, and both a gap and an overlap, are exercised.
    assert min(decisions.values()) >= 60
    assert kinds == {False, True}


def test_an_overlap_is_named_by_its_intersection_midpoint():
    space = unit_space(2)
    cells = with_affines(random.Random(1), [
        [(LO, F(1, 2)), (LO, HI)],
        [(F(0), HI), (LO, F(0))],
        [(F(1, 2), HI), (F(0), HI)],
    ])
    with pytest.raises(ValidationError) as caught:
        BoxPiecewiseModel(space, tuple(cells))
    assert named_witness(str(caught.value)) == ((F(1, 4), F(-1, 2)), [0, 1])


def test_a_gap_is_named_inside_the_uncovered_region():
    space = unit_space(2)
    cells = with_affines(random.Random(2), [
        [(LO, F(0)), (LO, HI)],
        [(F(0), HI), (LO, F(0))],
        [(F(1, 2), HI), (F(0), HI)],
    ])
    with pytest.raises(ValidationError) as caught:
        BoxPiecewiseModel(space, tuple(cells))
    assert named_witness(str(caught.value)) == ((F(1, 4), F(1, 2)), [])


def test_slab_membership_agrees_with_the_fraction_rule():
    """Slices and owners by rank agree with ``holds`` on every subset of
    axes, at every point of a quarter lattice that holds each cut line and
    the domain top."""
    rng = random.Random(20261019)
    for n in range(24):
        m = 1 + n % 3
        model = random_kd_model(rng, m, rng.randint(1, 8)) if n % 2 else random_grid_model(rng, m)
        tops = tuple(f.domain.hi for f in model.space.features)
        subsets = [[j for j in range(m) if mask >> j & 1] for mask in range(1 << m)]
        for v in product(QUARTERS, repeat=m):
            for axes in subsets:
                expected = [cell for cell in model.cells if holds(cell, v, axes, tops)]
                assert model.slice_cells(v, [j + 1 for j in axes]) == expected, (model, v, axes)
            assert [model.cell_at(v)] == expected  # the last subset fixes every axis


def test_errors_come_cell_by_cell_with_the_length_check_first():
    xs = [LO, F(-3, 4), F(-1, 2), F(-1, 4), F(0), F(1, 2), HI]
    cells = with_affines(random.Random(3), [[(a, b), (LO, HI)] for a, b in zip(xs, xs[1:])])
    outside = rebuilt(cells[2], box=((F(-2), F(-1, 4)), (LO, HI)))
    short = rebuilt(cells[5], box=((F(1, 2), HI),))
    cases = [
        ({2: outside, 5: short}, "cell 2: interval [-2, -1/4) invalid for feature 1"),
        ({2: rebuilt(outside, box=outside.box[:1]), 5: short},
         "cell 2: box/coeffs length must equal 2"),
        ({5: short}, "cell 5: box/coeffs length must equal 2"),
        ({5: rebuilt(cells[5], coeffs=(F(1),))}, "cell 5: box/coeffs length must equal 2"),
    ]
    for changes, message in cases:
        broken = tuple(changes.get(k, cell) for k, cell in enumerate(cells))
        with pytest.raises(ValidationError) as caught:
            BoxPiecewiseModel(unit_space(2), broken)
        assert str(caught.value) == message
    BoxPiecewiseModel(unit_space(2), tuple(cells))


# A guillotine layout in ten dimensions whose every split uses a cut that
# no other split on that axis uses, so the refined grid of all bounds has
# more than 10^9 boxes while the layout has only 80 cells.

HOSTILE_M, HOSTILE_CELLS = 10, 80


def hostile_boxes():
    rng = random.Random(7)
    boxes = [[(F(0), F(1))] * HOSTILE_M]
    used = [set() for _ in range(HOSTILE_M)]
    for split in range(HOSTILE_CELLS - 1):
        j = split % HOSTILE_M
        k = max(range(len(boxes)), key=lambda b: boxes[b][j][1] - boxes[b][j][0])
        lo, hi = boxes[k][j]
        cut = lo + (hi - lo) * F(rng.randint(1, 96), 97)
        while cut in used[j]:
            cut = lo + (hi - lo) * F(rng.randint(1, 96), 97)
        used[j].add(cut)
        box = boxes[k]
        boxes[k:k + 1] = [box[:j] + [(lo, cut)] + box[j + 1:],
                          box[:j] + [(cut, hi)] + box[j + 1:]]
    return boxes


def box_doc(boxes):
    return {
        "version": 1, "kind": "box_piecewise", "value_kind": "numeric",
        "features": [{"id": j + 1, "name": f"x{j + 1}",
                      "domain": {"type": "interval", "lo": "0", "hi": "1"}}
                     for j in range(HOSTILE_M)],
        "cells": [{"box": [[str(lo), str(hi)] for lo, hi in box],
                   "affine": [k] + [1] * HOSTILE_M}
                  for k, box in enumerate(boxes)],
    }


def test_the_hostile_layout_has_a_grid_past_a_billion_boxes():
    boxes = hostile_boxes()
    cuts = [{x for box in boxes for x in box[j]} for j in range(HOSTILE_M)]
    assert len(boxes) == HOSTILE_CELLS
    assert prod(len(axis) - 1 for axis in cuts) > 10 ** 9


def test_a_hostile_valid_layout_validates_within_a_second(capsys, tmp_path):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(box_doc(hostile_boxes())))
    with cpu_limit(1):
        assert run_cli(["validate", "--model", str(path)]) == 0
    assert f"ok: model valid ({HOSTILE_CELLS} cells)" in capsys.readouterr().out


@pytest.mark.parametrize("step", [F(-1, 1000), F(1, 1000)], ids=["gap", "overlap"])
def test_a_hostile_broken_layout_exits_2_with_a_witness_within_a_second(
        capsys, tmp_path, step):
    boxes = hostile_boxes()
    k = next(k for k, box in enumerate(boxes) if box[0][1] != 1)
    lo, hi = boxes[k][0]
    boxes[k][0] = (lo, hi + step)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(box_doc(boxes)))
    with cpu_limit(1):
        assert run_cli(["validate", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    space = FeatureSpace(tuple(Feature(j + 1, f"x{j + 1}", IntervalDomain(F(0), F(1)))
                               for j in range(HOSTILE_M)))
    cells = [Cell(tuple(box), F(0), (F(1),) * HOSTILE_M) for box in boxes]
    point, owners = named_witness(err)
    assert_true_witness(space, cells, err)
    assert (len(owners) >= 2) == (step > 0)


# Cells stacked along axis 2, each spanning all of axis 1: every cell
# starts at rank 0 on axis 1, so a scan sorted on axis 1 would compare
# every pair; sorted on axis 2, the axis of most distinct lower ranks, each
# cell meets only its neighbour.

STACKED = 4000


def stacked_boxes():
    cuts = [F(k, STACKED) for k in range(STACKED + 1)]
    return [[(F(0), F(1)), (lo, hi)] for lo, hi in zip(cuts, cuts[1:])]


def stacked_doc(boxes):
    return {
        "version": 1, "kind": "box_piecewise", "value_kind": "numeric",
        "features": [{"id": j + 1, "name": f"x{j + 1}",
                      "domain": {"type": "interval", "lo": "0", "hi": "1"}} for j in range(2)],
        "cells": [{"box": [[str(lo), str(hi)] for lo, hi in box], "affine": [k, 1, 1]}
                  for k, box in enumerate(boxes)],
    }


def test_a_stacked_layout_validates_within_a_second(capsys, tmp_path):
    path = tmp_path / "stacked.json"
    path.write_text(json.dumps(stacked_doc(stacked_boxes())))
    with cpu_limit(1):
        assert run_cli(["validate", "--model", str(path)]) == 0
    assert f"ok: model valid ({STACKED} cells)" in capsys.readouterr().out


@pytest.mark.parametrize("step", [F(-1, 2 * STACKED), F(1, 2 * STACKED)], ids=["gap", "overlap"])
def test_a_stacked_layout_with_one_bound_moved_exits_2_with_a_witness_within_a_second(
        capsys, tmp_path, step):
    boxes = stacked_boxes()
    k = STACKED - 2  # the top cell whose upper bound can move either way
    lo, hi = boxes[k][1]
    boxes[k][1] = (lo, hi + step)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(stacked_doc(boxes)))
    with cpu_limit(1):
        assert run_cli(["validate", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    space = FeatureSpace(tuple(Feature(j + 1, f"x{j + 1}", IntervalDomain(F(0), F(1)))
                               for j in range(2)))
    cells = [Cell(tuple(box), F(0), (F(1), F(1))) for box in boxes]
    assert_true_witness(space, cells, err)
    assert (len(named_witness(err)[1]) >= 2) == (step > 0)
