"""The box partition check against the midpoint-grid check it replaced.

``grid_witness`` is the earlier check, kept verbatim as the reference: it
refines all cell bounds into a grid and asks every grid box's midpoint for
its owners, which costs up to (2k)^m membership scans. The loader's check
must reach the same decision on every layout, name a point that really
lies in no cell or in several, and stay polynomial where the grid is not.
``holds`` is the half-open rule on Fraction bounds, the reference for
membership by slab rank. ``sweep`` and ``pair_scan`` are the two overlap
searches that the bitset check replaced, kept as the reference for the
pair it names.
"""

import json
import random
import re
from bisect import bisect_left
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import prod
from operator import le

import pytest

from shapxp import BoxPiecewiseModel, Cell, Feature, FeatureSpace, IntervalDomain, ValidationError
from shapxp.cli import run_cli
from boxmodels import QUARTERS, kd_boxes, random_grid_model, random_kd_model, slice_cells
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
# Reference: the plane sweep at m = 2 and the pair scan
# ---------------------------------------------------------------------------

def sweep(lows, highs):
    """Two overlapping cells of a 2-D model, or None, by a sweep along axis 0
    (Shamos and Hoey, FOCS 1976) over the live cells' axis-1 rank intervals,
    kept sorted: at each rank, cells that end leave before cells that start
    enter, and each entering interval is checked against its two neighbours."""
    (lo0, lo1), (hi0, hi1) = zip(*lows), zip(*highs)
    leaving, i, live = sorted(range(len(lo0)), key=hi0.__getitem__), 0, []
    for a in sorted(range(len(lo0)), key=lo0.__getitem__):
        while hi0[leaving[i]] <= lo0[a]:
            b = leaving[i]
            del live[bisect_left(live, (lo1[b], hi1[b], b))]
            i += 1
        p = bisect_left(live, (lo1[a], hi1[a], a))
        if p and live[p - 1][1] > lo1[a]:
            return live[p - 1][2], a
        if p < len(live) and live[p][0] < hi1[a]:
            return a, live[p][2]
        live.insert(p, (lo1[a], hi1[a], a))
    return None


def pair_scan(los, his):
    """Two overlapping cells, or None. Sorted by lower rank on the axis with
    the most of them, a cell is checked against the cells after it that
    start before it ends there; a staircase makes that quadratic."""
    axis = max(range(len(los[0])), key=lambda j: len({lo[j] for lo in los}))
    order = sorted(range(len(los)), key=lambda k: los[k][axis])
    starts = [los[k][axis] for k in order]
    for p, a in enumerate(order):
        lo_a, hi_a = los[a], his[a]
        end = bisect_left(starts, hi_a[axis], p + 1)
        for b in order[p + 1:end]:
            lo_b, hi_b = los[b], his[b]
            if not (any(map(le, hi_a, lo_b)) or any(map(le, hi_b, lo_a))):
                return a, b
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


def stretched(rng, boxes):
    """The boxes with one cell that ends inside an axis stretched to the top
    there, so that it meets every cell it then reaches; as they were if none
    ends inside."""
    inside = [(k, j) for k, box in enumerate(boxes) for j, (lo, hi) in enumerate(box) if hi != HI]
    if not inside:
        return boxes
    k, j = rng.choice(inside)
    boxes = [list(box) for box in boxes]
    boxes[k][j] = (boxes[k][j][0], HI)
    return boxes


def staircase_boxes(cuts):
    """For each step [c_k, c_k+1), a row [c_k, top] x [c_k, c_k+1) and, below
    the top, a column [c_k, c_k+1) x [c_k+1, top]: a partition in which every
    row spans the rest of axis 0 and every column the rest of axis 1."""
    top, boxes = cuts[-1], []
    for lo, hi in zip(cuts, cuts[1:]):
        boxes.append([(lo, top), (lo, hi)])
        if hi != top:
            boxes.append([(lo, hi), (hi, top)])
    return boxes


def layouts():
    rng = random.Random(20261018)
    for n in range(240):
        m = 1 + n % 3
        boxes = kd_boxes(rng, m, rng.randint(1, 9), LATTICE) if n % 2 else grid_boxes(rng, m)
        if n % 4 >= 2:
            boxes = moved(rng, boxes)
        yield m, with_affines(rng, boxes)
    for n in range(40):  # 2-D staircases, whole and with one bound moved, either way round
        boxes = staircase_boxes([LO] + sorted(rng.sample(LATTICE[1:-1], rng.randint(0, 6))) + [HI])
        if n % 2:
            boxes = moved(rng, boxes)
        yield 2, with_affines(rng, [box[::-1] for box in boxes] if n % 4 >= 2 else boxes)


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
            BoxPiecewiseModel.from_cells(space, tuple(cells))
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


def oracle_layouts():
    """(space, cells): ``layouts()``; random kd layouts at m = 2 to 5; 3-D
    staircases with the flat axis in each place, half with a bound moved;
    the unit staircases at m = 2 and 3, and the stacked and hostile
    layouts, each whole and with one bound moved either way."""
    for m, cells in layouts():
        yield unit_space(m), cells
    rng = random.Random(20261020)
    for n in range(360):  # whole, with one bound moved, or with one cell stretched
        m = 2 + n % 4
        boxes = kd_boxes(rng, m, rng.randint(1, 12), LATTICE)
        boxes = (boxes, moved(rng, boxes), stretched(rng, boxes))[n % 3]
        yield unit_space(m), with_affines(rng, boxes)
    for n in range(48):
        boxes = staircase_boxes([LO] + sorted(rng.sample(LATTICE[1:-1], rng.randint(0, 6))) + [HI])
        boxes = moved(rng, boxes) if n % 2 else boxes
        boxes = [box[::-1] for box in boxes] if n % 4 >= 2 else boxes
        j = n % 3
        yield unit_space(3), with_affines(rng, [box[:j] + [(LO, HI)] + box[j:] for box in boxes])
    for move in (0, -1, 1):
        yield on_cube(unit_staircase(399, move))
        yield on_cube(unit_staircase_3d(399, move))
    for step in (0, F(-1, 2 * STACKED), F(1, 2 * STACKED)):
        yield on_cube(stacked_boxes(step))
    for step in (0, F(-1, 1000), F(1, 1000)):
        yield on_cube(hostile_boxes(step))


def test_the_bitset_check_names_the_pair_that_the_pair_scan_names(monkeypatch):
    """The same pair, or None with it, on every layout; at m = 2 the sweep's
    decision too, and on every overlap a true witness in the error."""
    overlaps = Counter()
    for space, cells in oracle_layouts():
        with monkeypatch.context() as patch:  # the ranks, with no partition check
            patch.setattr(BoxPiecewiseModel, "_partition_witness", lambda self: None)
            model = BoxPiecewiseModel.from_cells(space, tuple(cells))
        pair = model._overlap()
        lows, highs = list(zip(*model.lows)), list(zip(*model.highs))  # each cell's ranks
        assert pair == pair_scan(lows, highs), cells
        if space.m == 2:
            assert (pair is None) == (sweep(lows, highs) is None), cells
        if pair is not None:
            overlaps[space.m] += 1
            with pytest.raises(ValidationError) as caught:
                BoxPiecewiseModel.from_cells(space, tuple(cells))
            assert_true_witness(space, cells, str(caught.value))
    assert min(overlaps[m] for m in (1, 2, 3, 4, 5, HOSTILE_M)) >= 1
    assert sum(overlaps.values()) >= 150


def test_an_overlap_is_named_by_its_intersection_midpoint():
    space = unit_space(2)
    cells = with_affines(random.Random(1), [
        [(LO, F(1, 2)), (LO, HI)],
        [(F(0), HI), (LO, F(0))],
        [(F(1, 2), HI), (F(0), HI)],
    ])
    with pytest.raises(ValidationError) as caught:
        BoxPiecewiseModel.from_cells(space, tuple(cells))
    assert named_witness(str(caught.value)) == ((F(1, 4), F(-1, 2)), [0, 1])


def test_a_gap_is_named_inside_the_uncovered_region():
    space = unit_space(2)
    cells = with_affines(random.Random(2), [
        [(LO, F(0)), (LO, HI)],
        [(F(0), HI), (LO, F(0))],
        [(F(1, 2), HI), (F(0), HI)],
    ])
    with pytest.raises(ValidationError) as caught:
        BoxPiecewiseModel.from_cells(space, tuple(cells))
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
                assert slice_cells(model, v, [j + 1 for j in axes]) == expected, (model, v, axes)
            assert [model.cells[model._owner(v)]] == expected  # the last subset fixes every axis


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
            BoxPiecewiseModel.from_cells(unit_space(2), broken)
        assert str(caught.value) == message
    BoxPiecewiseModel.from_cells(unit_space(2), tuple(cells))


# A guillotine layout in ten dimensions whose every split uses a cut that
# no other split on that axis uses, so the refined grid of all bounds has
# more than 10^9 boxes while the layout has only 80 cells.

HOSTILE_M, HOSTILE_CELLS = 10, 80


def hostile_boxes(step=0):
    """The layout; with a step, the first cell that ends inside axis 1 ends
    that much later there."""
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
    k = next(k for k, box in enumerate(boxes) if box[0][1] != 1)
    lo, hi = boxes[k][0]
    boxes[k][0] = (lo, hi + step)
    return boxes


def box_doc(boxes):
    """A model on [0, 1]^m with the boxes as its cells."""
    m = len(boxes[0])
    return {
        "version": 1, "kind": "box_piecewise", "value_kind": "numeric",
        "features": [{"id": j + 1, "name": f"x{j + 1}",
                      "domain": {"type": "interval", "lo": "0", "hi": "1"}}
                     for j in range(m)],
        "cells": [{"box": [[str(lo), str(hi)] for lo, hi in box], "affine": [k] + [1] * m}
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
    boxes = hostile_boxes(step)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(box_doc(boxes)))
    assert_exits_2_with_a_true_witness(capsys, boxes, path, overlap=step > 0)


# Cells stacked along axis 2, each spanning all of axis 1: every cell
# starts at rank 0 on axis 1, so a scan sorted on axis 1 would compare
# every pair; sorted on axis 2, the axis of most distinct lower ranks, each
# cell meets only its neighbour.

STACKED = 4000


def stacked_boxes(step=0, cells=STACKED):
    """The layout; with a step, the top cell whose upper bound can move either
    way ends that much later on axis 2."""
    cuts = [F(k, cells) for k in range(cells + 1)]
    boxes = [[(F(0), F(1)), (lo, hi)] for lo, hi in zip(cuts, cuts[1:])]
    lo, hi = boxes[cells - 2][1]
    boxes[cells - 2][1] = (lo, hi + step)
    return boxes


# On the sort axis the check counts ranks and builds no unions, so 16,000
# stacked cells take 4k bits on axis 1, where the sort axis alone would
# have taken about 2k^2 (5.1e8, past the guard).

@pytest.mark.parametrize("cells", [STACKED, 16000])
def test_a_stacked_layout_validates_within_a_second(capsys, tmp_path, cells):
    path = tmp_path / "stacked.json"
    path.write_text(json.dumps(box_doc(stacked_boxes(cells=cells))))
    with cpu_limit(1):
        assert run_cli(["validate", "--model", str(path)]) == 0
    assert f"ok: model valid ({cells} cells)" in capsys.readouterr().out


@pytest.mark.parametrize("step", [F(-1, 2 * STACKED), F(1, 2 * STACKED)], ids=["gap", "overlap"])
def test_a_stacked_layout_with_one_bound_moved_exits_2_with_a_witness_within_a_second(
        capsys, tmp_path, step):
    boxes = stacked_boxes(step)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(box_doc(boxes)))
    assert_exits_2_with_a_true_witness(capsys, boxes, path, overlap=step > 0)


def on_cube(boxes):
    """[0, 1]^m and cells on the boxes, as ``box_doc`` writes them bar the intercepts."""
    m = len(boxes[0])
    space = FeatureSpace(tuple(Feature(j + 1, f"x{j + 1}", IntervalDomain(F(0), F(1)))
                               for j in range(m)))
    return space, [Cell(tuple(box), F(0), (F(1),) * m) for box in boxes]


def assert_exits_2_with_a_true_witness(capsys, boxes, path, overlap):
    with cpu_limit(1):
        assert run_cli(["validate", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert_true_witness(*on_cube(boxes), err)
    assert (len(named_witness(err)[1]) >= 2) == overlap


# A staircase of n steps on [0, 1]^2 (2n - 1 cells) defeats every sort axis
# of a pair scan: each row overlaps every later cell on axis 0, each column
# on axis 1. The bitset check ANDs one mask per axis for each cell.

def unit_staircase(cells, move=0):
    """The staircase; with move = 1 or -1, the middle row (n even) ends
    1/2n later or sooner on axis 1."""
    n = (cells + 1) // 2
    boxes = staircase_boxes([F(k, n) for k in range(n + 1)])
    lo, hi = boxes[n][1]
    boxes[n][1] = (lo, hi + F(move, 2 * n))
    return boxes


@pytest.mark.parametrize("cells", [3999, 7999])
def test_a_staircase_validates_within_a_second(capsys, tmp_path, cells):
    path = tmp_path / "staircase.json"
    path.write_text(json.dumps(box_doc(unit_staircase(cells))))
    with cpu_limit(1):
        assert run_cli(["validate", "--model", str(path)]) == 0
    assert f"ok: model valid ({cells} cells)" in capsys.readouterr().out


@pytest.mark.parametrize("overlap", [False, True], ids=["gap", "overlap"])
@pytest.mark.parametrize("cells", [3999, 7999])
def test_a_staircase_with_one_bound_moved_exits_2_with_a_witness_within_a_second(
        capsys, tmp_path, cells, overlap):
    boxes = unit_staircase(cells, 1 if overlap else -1)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(box_doc(boxes)))
    assert_exits_2_with_a_true_witness(capsys, boxes, path, overlap)


# The staircase times [0, 1]: at m = 3 the check is as wide as at m = 2.

# The unions take 2 * cuts * k bits on each axis but the sort one: on
# axis 1 of a staircase of n steps, 2 * (n + 1) * (2n - 1), so 16,999
# cells (2.9e8 bits) are refused before they are built.

def test_a_staircase_past_the_index_guard_exits_3_within_a_second(capsys, tmp_path):
    path = tmp_path / "staircase.json"
    path.write_text(json.dumps(box_doc(unit_staircase(16999))))
    with cpu_limit(1):
        assert run_cli(["validate", "--model", str(path)]) == 3
    assert "partition check guarded at 268435456 bits, got 289016998" in capsys.readouterr().err


def unit_staircase_3d(cells, move=0):
    return [box + [(F(0), F(1))] for box in unit_staircase(cells, move)]


@pytest.mark.parametrize("cells", [1999, 3999, 7999])
def test_a_3d_staircase_validates_within_a_second(capsys, tmp_path, cells):
    path = tmp_path / "staircase3.json"
    path.write_text(json.dumps(box_doc(unit_staircase_3d(cells))))
    with cpu_limit(1):
        assert run_cli(["validate", "--model", str(path)]) == 0
    assert f"ok: model valid ({cells} cells)" in capsys.readouterr().out


@pytest.mark.parametrize("overlap", [False, True], ids=["gap", "overlap"])
def test_a_3d_staircase_with_one_bound_moved_exits_2_with_a_witness_within_a_second(
        capsys, tmp_path, overlap):
    boxes = unit_staircase_3d(7999, 1 if overlap else -1)
    path = tmp_path / "broken3.json"
    path.write_text(json.dumps(box_doc(boxes)))
    assert_exits_2_with_a_true_witness(capsys, boxes, path, overlap)


def test_3d_layouts_of_the_bench_sizes_validate():
    rng = random.Random(4)
    cuts = [[LO] + sorted(rng.sample(LATTICE[1:-1], 3)) + [HI] for _ in range(3)]
    for boxes in (kd_boxes(rng, 3, 64, LATTICE[::2]),
                  [list(box) for box in product(*(zip(c, c[1:]) for c in cuts))]):
        BoxPiecewiseModel.from_cells(unit_space(3), tuple(with_affines(rng, boxes)))
