"""Random grid-partition box models and exact oracles for them.

Cell bounds are drawn on a quarter-integer lattice and affine
coefficients on a half-integer lattice, so every margin between an affine
corner value and a similarity band edge is a rational with denominator
at most 64. Inset witnesses therefore only need to stay within 1/128 of
the corner value, which a 1/4096 coordinate inset guarantees (absolute
slope sum is at most 8).
"""

from collections import namedtuple
from fractions import Fraction
from itertools import product

from shapxp import BoxPiecewiseModel, Feature, FeatureSpace, IntervalDomain, predict

Cell = namedtuple("Cell", "box intercept coeffs")
Cell.__doc__ = """One cell of a box model as the tests write and read it: per-feature
(lo, hi) bounds and the affine intercept + sum_i coeffs[i] * x_i."""


def box_columns(cells, m):
    """The bound and affine columns that hold ``cells`` in order."""
    bounds = tuple(tuple(c.box[j][end] for c in cells) for j in range(m) for end in (0, 1))
    affines = tuple(tuple((c.intercept, *c.coeffs)[i] for c in cells) for i in range(m + 1))
    return bounds, affines


def box_model(space, cells):
    """The model whose columns hold ``cells`` in order."""
    return BoxPiecewiseModel(space, *box_columns(cells, space.m))


def cells_of(model):
    """A box model's cells, read from its columns, in order."""
    boxes = zip(*map(zip, model.bounds[::2], model.bounds[1::2]))
    return tuple(map(Cell, boxes, model.affines[0], zip(*model.affines[1:])))

INSET = Fraction(1, 4096)
LO, HI = Fraction(-1), Fraction(1)
QUARTERS = [Fraction(k, 4) for k in range(-4, 5)]  # the domain's ends and every cut


def random_grid_model(rng, m=2):
    axes_cuts = []
    for _ in range(m):
        inner = sorted(rng.sample(QUARTERS[1:-1], rng.randint(1, 2)))
        axes_cuts.append([LO] + inner + [HI])
    return model_on(rng, list(product(*(zip(cuts, cuts[1:]) for cuts in axes_cuts))))


def random_kd_model(rng, m=2, n_cells=6):
    return model_on(rng, kd_boxes(rng, m, n_cells, QUARTERS))


def kd_boxes(rng, m, n_cells, lattice):
    """A guillotine layout of [lo, hi]^m (the lattice's ends): split random
    cells at lattice points inside them."""
    boxes = [[(lattice[0], lattice[-1])] * m]
    while len(boxes) < n_cells:
        k, j = rng.randrange(len(boxes)), rng.randrange(m)
        lo, hi = boxes[k][j]
        inside = [x for x in lattice if lo < x < hi]
        if not inside:
            continue
        cut = rng.choice(inside)
        box = boxes[k]
        boxes[k:k + 1] = [box[:j] + [(lo, cut)] + box[j + 1:],
                          box[:j] + [(cut, hi)] + box[j + 1:]]
    return boxes


def odd_primes_above(n, count):
    """The first ``count`` primes above n (n >= 2), by trial division."""
    primes, p = [], n + 1
    while len(primes) < count:
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            primes.append(p)
        p += 1
    return primes


def prime_stacked_model(rng, n_cells=1024):
    """A model on [-1, 1]^2 of ``n_cells`` cells stacked along axis 2, each
    spanning all of axis 1, whose n_cells - 1 inner cuts carry distinct
    odd-prime denominators: cut k is the multiple of 2/p_k nearest to
    -1 + 2k/n_cells, and p_k > 2 * n_cells keeps the cuts increasing."""
    cuts = [LO] + [LO + 2 * Fraction(round(p * k / n_cells), p)
                   for k, p in enumerate(odd_primes_above(2 * n_cells, n_cells - 1), 1)] + [HI]
    return model_on(rng, [[(LO, HI), (lo, hi)] for lo, hi in zip(cuts, cuts[1:])])


def model_on(rng, boxes):
    """A model on [-1, 1]^m with random affines on the boxes, drawn again
    until it is not constant."""
    m = len(boxes[0])
    space = FeatureSpace(tuple(
        Feature(j + 1, f"x{j + 1}", IntervalDomain(LO, HI)) for j in range(m)))
    coeff_pool = [Fraction(k, 2) for k in range(-4, 5)]
    while True:
        cells = []
        for bounds in boxes:
            cells.append(Cell(tuple(bounds), rng.choice(coeff_pool),
                              tuple(rng.choice(coeff_pool) for _ in range(m))))
        if len({(c.intercept, c.coeffs) for c in cells}) > 1 or any(
                a != 0 for c in cells for a in c.coeffs):
            return box_model(space, cells)


def aligned_midpoints(domain, step=Fraction(1, 16)):
    points = []
    x = domain.lo + step / 2
    while x < domain.hi:
        points.append(x)
        x += step
    return points


def exact_expectation_by_midpoints(model, v, fixed, step=Fraction(1, 16)):
    """Midpoint quadrature on a grid aligned with every cell boundary; the
    integrand is affine inside each sub-box, so this is exact."""
    axes = []
    for feature in model.space.features:
        if feature.id in fixed:
            axes.append([Fraction(v[feature.id - 1])])
        else:
            axes.append(aligned_midpoints(feature.domain, step))
    total = Fraction(0)
    count = 0
    for point in product(*axes):
        total += predict(model, point)
        count += 1
    return total / count


def slice_cells(model, v, fixed):
    """The cells of a box model meeting the slice x_S = v_S, by the model's
    own slab rule. Only the fixed axes are tested: cell boxes are
    non-degenerate, so free axes always meet."""
    cells = cells_of(model)
    return [cells[k] for k in model._holders(v, [fid - 1 for fid in fixed])]


def inset_corner_points(model, cell, v, fixed):
    """Achievable points of the cell slice just inside each closure
    corner; the affine's extremes over the slice are approached here."""
    axes = []
    for j in range(model.space.m):
        if (j + 1) in fixed:
            axes.append([Fraction(v[j])])
        else:
            lo, hi = cell.box[j]
            axes.append([lo, hi - INSET] if hi - lo > INSET else [lo])
    return list(product(*axes))
