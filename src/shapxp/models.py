"""Small ML models with enumerable or analytically integrable semantics.

Three model kinds are supported, all immutable after validation:

* ``TabularModel``  - an explicit lookup table over a finite feature space;
* ``TreeModel``     - a decision/regression tree over discrete features;
* ``BoxPiecewiseModel`` - an axis-aligned piecewise-affine function over a
  product of real intervals.

Each kind owns its semantics through one method set; the operations at the
end of this module check their inputs and then call it:

* ``output(point)`` - the prediction at an in-domain point, unchecked;
* ``slice_outputs(v, fixed)`` - outputs that decide a universal quantifier
  over the slice {x | x_S = v_S}: the output at every point of the slice
  for the discrete kinds, the closure extremes of the affine on each cell
  the slice meets for box models;
* ``slice_expectation(v, fixed)`` - the mean output over the slice under
  the uniform, feature-independent product distribution;
* ``output_range()`` - the exact (min, max) output over the whole space;
* ``labelled_points()``, ``masked_outputs(v)`` and ``relabel(mapping)`` -
  the discrete kinds only: every point with its output, every point's
  agreement mask with v with its output, and the model under an output
  relabeling;
* ``disagreements(v, dissimilar)`` - masks of weak contrastive
  explanations, every minimal one among them: a table's from its points,
  a tree's from its leaves, a box model's from its cells per coalition.

Each kind derives them from one primitive: box cells ``_affine_extremes``,
the discrete kinds a reader from slots to outputs. A discrete space
numbers its points by mixed radix (``FeatureSpace.slot``), and every
enumeration walks those slots lazily through the one guarded product of
axes; a table reads its dense ``outputs`` at a slot, a tree walks the
routes that one validating walk builds, reading each tested feature's
digit of the slot. The discrete kinds share every method but ``_read``.
All arithmetic on numeric values is exact (``fractions.Fraction``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import product
from math import prod
from operator import getitem, le, mul, sub
from typing import Callable, Iterable, Iterator

from .errors import (
    DomainError,
    NumericOutputError,
    SizeLimitError,
    UnsupportedOperationError,
    ValidationError,
)

Value = Fraction | int | str
Point = tuple

NUMERIC = "numeric"
CATEGORICAL = "categorical"
POINT_GUARD = 2 ** 20  # points one enumeration, or the slices of one run over coalitions, may visit


# ---------------------------------------------------------------------------
# Feature space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteDomain:
    """Finite ordered list of admissible values for one feature."""

    values: tuple
    # Each value's position in ``values``: membership, the slot numbering
    # and the loaders' column paths all read this one index.
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.values:
            raise ValidationError("discrete domain must be non-empty")
        index = {x: k for k, x in enumerate(self.values)}
        if len(index) != len(self.values):
            raise ValidationError("discrete domain has duplicate values")
        object.__setattr__(self, "index", index)

    def __contains__(self, value) -> bool:
        try:
            return value in self.index
        except TypeError:  # an unhashable value is in no domain
            return False


@dataclass(frozen=True)
class IntervalDomain:
    """Closed real interval [lo, hi] with lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValidationError(f"interval domain needs lo < hi, got [{self.lo}, {self.hi}]")

    def __contains__(self, value) -> bool:
        try:
            return self.lo <= value <= self.hi
        except TypeError:
            return False

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


Domain = DiscreteDomain | IntervalDomain


@dataclass(frozen=True)
class Feature:
    id: int  # 1-based
    name: str
    domain: Domain


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered product of per-feature domains; feature ids are 1..m."""

    features: tuple[Feature, ...]

    def __post_init__(self):
        if not self.features:
            raise ValidationError("feature space needs at least one feature")
        ids = [f.id for f in self.features]
        if ids != list(range(1, len(ids) + 1)):
            raise ValidationError(f"feature ids must be 1..m with no gaps, got {ids}")

    @property
    def m(self) -> int:
        return len(self.features)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1))

    def domain(self, feature_id: int) -> Domain:
        return self.features[feature_id - 1].domain

    def all_discrete(self) -> bool:
        return all(isinstance(f.domain, DiscreteDomain) for f in self.features)

    def all_interval(self) -> bool:
        return all(isinstance(f.domain, IntervalDomain) for f in self.features)

    def check_point(self, point: Point) -> None:
        if len(point) != self.m:
            raise DomainError(f"point has {len(point)} coordinates, expected {self.m}")
        for x, f in zip(point, self.features):
            if x not in f.domain:
                raise DomainError(f"value {x!r} outside domain of feature {f.id} ({f.name})")

    def points(self, fixed: Mapping[int, Value] = {}) -> Iterator[Point]:
        """A discrete space's points, the ``fixed`` features pinned, in lexicographic order."""
        return _product([(fixed[f.id],) if f.id in fixed else f.domain.values
                         for f in self.features])

    # The slot numbering of a discrete space: the point at domain positions
    # (k_1, ..., k_m) owns slot sum_j k_j * strides[j], so slots run in
    # lexicographic point order (the last feature varies fastest).
    @cached_property
    def radices(self) -> tuple[int, ...]:
        return tuple(len(f.domain.values) for f in self.features)

    @cached_property
    def size(self) -> int:
        return prod(self.radices)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        strides = [1]
        for radix in reversed(self.radices[1:]):
            strides.append(strides[-1] * radix)
        return tuple(reversed(strides))

    @cached_property
    def indexes(self) -> tuple[dict, ...]:
        """Each feature's value -> domain position index."""
        return tuple(f.domain.index for f in self.features)

    def slot(self, point: Point) -> int:
        """The slot of an in-domain point."""
        return sum(map(mul, map(getitem, self.indexes, point), self.strides))

    def slots(self, fixed: Mapping[int, Value] = {}) -> Iterator[int]:
        """The slots of ``points(fixed)``, in the same order: the fixed
        features' offsets plus every combination of the free ones'."""
        if not fixed:  # the whole space: a range, cheaper than a product of sums
            _guard(self.size)
            return iter(range(self.size))
        return map(sum, _product([
            (self.indexes[j][fixed[j + 1]] * stride,) if j + 1 in fixed
            else range(0, radix * stride, stride)
            for j, (radix, stride) in enumerate(zip(self.radices, self.strides))]))


# ---------------------------------------------------------------------------
# Model kinds
# ---------------------------------------------------------------------------

class _EnumerableModel:
    """Semantics shared by the discrete kinds, all read by slot of the
    space's numbering. Subclasses define ``_read`` (slot -> output),
    ``_values`` (every output the model can produce, repeats allowed) and
    ``_relabelled``."""

    def output(self, point: Point) -> Value:
        return self._read(self.space.slot(point))

    def slice_outputs(self, v: Point, fixed: frozenset[int]) -> Iterator[Value]:
        """The output at every point x of the slice x_S = v_S, lazily."""
        return map(self._read, self.space.slots({j: v[j - 1] for j in fixed}))

    def slice_expectation(self, v: Point, fixed: frozenset[int]) -> Fraction:
        outputs = list(self.slice_outputs(v, fixed))
        return sum(outputs, Fraction(0)) / len(outputs)

    def output_range(self) -> tuple[Fraction, Fraction]:
        # Numeric outputs are ints or Fractions, which compare exactly, so
        # only the two extremes are converted.
        values = self._values()
        return Fraction(min(values)), Fraction(max(values))

    # Every point with its output, in slot order; the product of per-feature
    # agreement bits in masked_outputs runs in the same order.
    def labelled_points(self) -> Iterator[tuple[Point, Value]]:
        return zip(self.space.points(), map(self._read, self.space.slots()))

    def masked_outputs(self, v: Point) -> Iterator[tuple[int, Value]]:
        """(agreement mask with v, output) of every point of the space."""
        axes = [[1 << j if x == v[j] else 0 for x in f.domain.values]
                for j, f in enumerate(self.space.features)]
        return zip(map(sum, _product(axes)), map(self._read, self.space.slots()))

    def disagreements(self, v: Point, dissimilar: Callable[[Value], bool]) -> Iterator[int]:
        """The disagreement mask with v (bit j: x_j != v_j) of every point
        whose output is ``dissimilar``."""
        full = (1 << self.space.m) - 1
        return (full ^ mask for mask, y in self.masked_outputs(v) if dissimilar(y))

    def relabel(self, mapping: Mapping):
        """The same model with each output y replaced by mapping[y]; the map
        must be injective on the model's outputs."""
        values = set(self._values())
        missing = [y for y in values if y not in mapping]
        if missing:
            raise ValidationError(f"relabeling map misses output value {missing[0]!r}")
        images = [mapping[y] for y in values]
        if len(set(images)) != len(images):
            raise ValidationError("relabeling map is not injective on the model's outputs")
        numeric = all(isinstance(y, (int, Fraction)) for y in images)
        return self._relabelled(mapping, NUMERIC if numeric else CATEGORICAL)


@dataclass(frozen=True)
class TabularModel(_EnumerableModel):
    """Total lookup table over a fully discrete feature space, stored dense:
    ``outputs`` holds the output at every slot of the space's numbering."""

    space: FeatureSpace
    outputs: tuple
    value_kind: str = NUMERIC
    distinct: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.space.all_discrete():
            raise ValidationError("tabular models need all-discrete domains")
        outputs = tuple(self.outputs)
        if len(outputs) != self.space.size:
            raise ValidationError(
                f"table lists {len(outputs)} outputs for {self.space.size} points")
        object.__setattr__(self, "outputs", outputs)
        # The outputs repeat a few objects (the loader parses each distinct
        # token once), so they are told apart by identity before hashing;
        # the first appearances, in slot order, are checked for the others.
        firsts = {id(y): y for y in outputs}.values()
        if None in firsts:
            raise _not_total(self.space, outputs)
        _check_values(firsts, self.value_kind)
        distinct = frozenset(firsts)
        object.__setattr__(self, "distinct", distinct)
        if len(distinct) < 2:
            raise ValidationError("model is constant; a non-constant prediction function is required")

    @property
    def _read(self):
        return self.outputs.__getitem__

    def _values(self):
        return self.distinct

    def _relabelled(self, mapping: Mapping, value_kind: str) -> "TabularModel":
        return TabularModel(self.space, tuple(map(mapping.__getitem__, self.outputs)), value_kind)


def dense_slots(space: FeatureSpace) -> list:
    """One empty (None) output slot per point of a tabular model's space,
    refused above POINT_GUARD points before any slot is allocated."""
    if not space.all_discrete():
        raise ValidationError("tabular models need all-discrete domains")
    _guard(space.size)
    return [None] * space.size


def _not_total(space: FeatureSpace, outputs) -> ValidationError:
    """The error for a table with empty (None) slots; the example is the
    first in slot order, since points may mix labels and rationals, which
    do not sort."""
    missing = [slot for slot, y in enumerate(outputs) if y is None]
    first = tuple(f.domain.values[missing[0] // s % r]
                  for f, s, r in zip(space.features, space.strides, space.radices))
    return ValidationError(f"table is not total: missing {len(missing)} points, e.g. {first}")


@dataclass(frozen=True)
class TreeLeaf:
    value: Value


@dataclass(frozen=True)
class TreeNode:
    """Internal node: tests one feature, one child per domain-value group."""

    feature: int
    edges: tuple[tuple[tuple, int], ...]  # (values, child id) pairs


@dataclass(frozen=True)
class TreeModel(_EnumerableModel):
    """Decision/regression tree over discrete features.

    Every node but the root has exactly one parent, each root-to-leaf path
    tests a feature at most once and every node's edges partition its
    feature's domain, so the induced function is total.
    """

    space: FeatureSpace
    nodes: Mapping[int, TreeNode | TreeLeaf]
    root: int
    value_kind: str = NUMERIC
    # Each internal node's route (0-based feature axis, child id per domain
    # position), from _validate.
    routes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.space.all_discrete():
            raise ValidationError("tree models need all-discrete domains")
        object.__setattr__(self, "routes", self._validate())

    def _validate(self) -> dict:
        """One walk from the root, visiting each node once; returns the routes."""
        routes, seen, path = {}, set(), []  # path: features tested above the node
        stack = [(self.root, 0)]
        while stack:
            node_id, depth = stack.pop()
            if node_id not in self.nodes:
                raise ValidationError(f"tree references unknown node id {node_id}")
            if node_id in seen:
                raise ValidationError(
                    f"tree node {node_id} is reached twice; each node needs one parent")
            seen.add(node_id)
            node = self.nodes[node_id]
            if isinstance(node, TreeLeaf):
                continue
            del path[depth:]
            if node.feature in path:
                raise ValidationError(f"feature {node.feature} tested twice on one path")
            if node.feature not in self.space.ids:
                raise ValidationError(f"tree tests unknown feature {node.feature}")
            path.append(node.feature)
            domain = self.space.domain(node.feature)
            if not all(values for values, _ in node.edges):
                # its child would count as reached, yet no point reaches it
                raise ValidationError(f"node {node_id}: an edge routes no domain value")
            route, index = {}, domain.index  # route: domain position -> child
            for values, child in node.edges:
                for v in values:
                    try:
                        route[index[v]] = child
                    except (KeyError, TypeError):  # TypeError: an unhashable value
                        raise ValidationError(
                            f"edge value {v!r} outside domain of feature {node.feature}") from None
            if len(route) < sum(len(values) for values, _ in node.edges):
                raise ValidationError(f"node {node_id}: a domain value maps to two children")
            if len(route) != len(domain.values):
                raise ValidationError(f"node {node_id}: edges do not cover the domain")
            routes[node_id] = (node.feature - 1, tuple(map(route.__getitem__, range(len(route)))))
            stack.extend((child, depth + 1) for _, child in reversed(node.edges))
        unreachable = [nid for nid in self.nodes if nid not in seen]  # ids may not sort
        if unreachable:
            raise ValidationError(f"unreachable tree nodes: {unreachable}")
        leaf_values = self._values()
        _check_values(leaf_values, self.value_kind)
        if len(set(leaf_values)) < 2:
            raise ValidationError("model is constant; a non-constant prediction function is required")
        return routes

    def _read(self, slot: int) -> Value:
        """The output at a slot: each node on the way reads its feature's
        digit of the slot."""
        node_id, routes = self.root, self.routes
        strides, radices = self.space.strides, self.space.radices
        while node_id in routes:
            j, children = routes[node_id]
            node_id = children[slot // strides[j] % radices[j]]
        return self.nodes[node_id].value

    def disagreements(self, v: Point, dissimilar: Callable[[Value], bool]) -> Iterator[int]:
        """The disagreement mask with v (bit j: x_j != v_j) of each leaf
        whose output is ``dissimilar``: the features on its path whose edge
        excludes v_j. Every edge routes some value (see _validate), and off
        its path a point reaching the leaf may agree with v, so each mask is
        a dissimilar point's, and every dissimilar point's mask holds its
        leaf's. One walk from the root, O(nodes)."""
        stack = [(self.root, 0)]
        while stack:
            node_id, mask = stack.pop()
            node = self.nodes[node_id]
            if isinstance(node, TreeLeaf):
                if dissimilar(node.value):
                    yield mask
                continue
            j = node.feature - 1
            stack.extend((child, mask if v[j] in values else mask | 1 << j)
                         for values, child in node.edges)

    def _values(self) -> list:
        return [n.value for n in self.nodes.values() if isinstance(n, TreeLeaf)]

    def _relabelled(self, mapping: Mapping, value_kind: str) -> "TreeModel":
        nodes = {nid: TreeLeaf(mapping[n.value]) if isinstance(n, TreeLeaf) else n
                 for nid, n in self.nodes.items()}
        return TreeModel(self.space, nodes, self.root, value_kind)


@dataclass(frozen=True)
class Cell:
    """One box of a piecewise-affine model: per-feature [lo, hi) bounds
    (closed at the domain's upper endpoint) and affine output
    a0 + sum_i coeffs[i] * x_i."""

    box: tuple[tuple[Fraction, Fraction], ...]
    intercept: Fraction
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class BoxPiecewiseModel:
    """Axis-aligned piecewise-affine regressor; cells partition the space.

    Cell intervals are half-open [lo, hi) except that hi equal to the
    domain's upper endpoint is closed, which makes membership unambiguous
    and the partition check decidable. Both compare integers on a rank
    grid: each axis's sorted distinct ``cuts`` (cell bounds and domain
    endpoints), and each cell's bounds as their ranks."""

    space: FeatureSpace
    cells: tuple[Cell, ...]
    value_kind: str = NUMERIC
    cuts: tuple = field(init=False, repr=False, compare=False)   # per axis
    lows: tuple = field(init=False, repr=False, compare=False)   # per cell, per axis
    highs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.space.all_interval():
            raise ValidationError("box-piecewise models need all-interval domains")
        if self.value_kind != NUMERIC:
            raise ValidationError("box-piecewise models are numeric-valued")
        if not self.cells:
            raise ValidationError("box-piecewise model has no cells")
        m, cells = self.space.m, self.cells
        # Errors come cell by cell, length first: rank the cells before a wrong length.
        short = next((k for k, c in enumerate(cells)
                      if len(c.box) != m or len(c.coeffs) != m), len(cells))
        cuts, ranks = zip(*(_ranked([f.domain.lo, f.domain.hi,
                                     *(x for c in cells[:short] for x in c.box[j])])
                            for j, f in enumerate(self.space.features)))
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "lows", tuple(zip(*(r[2::2] for r in ranks))))
        object.__setattr__(self, "highs", tuple(zip(*(r[3::2] for r in ranks))))
        for k, (lo, hi) in enumerate(zip(self.lows, self.highs)):
            for j, r in enumerate(ranks):  # r[0], r[1]: the domain's endpoints
                if not r[0] <= lo[j] < hi[j] <= r[1]:
                    raise ValidationError(f"cell {k}: interval [{cells[k].box[j][0]}, "
                                          f"{cells[k].box[j][1]}) invalid for feature {j + 1}")
        if short < len(cells):
            raise ValidationError(f"cell {short}: box/coeffs length must equal {m}")
        witness = self._partition_witness()
        if witness is not None:
            owners = self._holders(witness, range(m))
            kind = "no cell" if not owners else f"cells {owners}"
            raise ValidationError(
                f"cells do not partition the space: point {witness} lies in {kind}")
        # Constant iff every coefficient is zero and all intercepts agree.
        first = (cells[0].intercept, cells[0].coeffs)
        if not any(first[1]) and all((c.intercept, c.coeffs) == first for c in cells):
            raise ValidationError("model is constant; a non-constant prediction function is required")

    def _partition_witness(self) -> Point | None:
        """None if the cells partition the space, else a point in no cell or
        in several, in O(k^2 * m + k * m^2) for k cells and m features. Each
        cell is a union of the grid's slabs, and interior-disjoint cells are
        disjoint under the half-open rule, so the cells partition the space
        when some axis separates every pair and they count every slab."""
        cuts, los, his = self.cuts, self.lows, self.highs
        slabs = [len(axis) - 1 for axis in cuts]

        def midpoint(j, lo, hi):
            return (cuts[j][lo] + cuts[j][hi]) / 2

        # Sorted by lower rank on axis 0, a cell can overlap only the cells
        # after it that start before it ends there.
        order = sorted(range(len(los)), key=lambda k: los[k][0])
        for p, a in enumerate(order):
            lo_a, hi_a = los[a], his[a]
            for b in order[p + 1:]:
                lo_b, hi_b = los[b], his[b]
                if lo_b[0] >= hi_a[0]:
                    break
                if not (any(map(le, hi_a, lo_b)) or any(map(le, hi_b, lo_a))):
                    return tuple(midpoint(j, max(lo_a[j], lo_b[j]), min(hi_a[j], hi_b[j]))
                                 for j in range(len(cuts)))
        if sum(prod(map(sub, hi, lo)) for lo, hi in zip(los, his)) == prod(slabs):
            return None
        # A gap: on each axis, fix the midpoint of the first slab whose cells
        # count its cross-section short. On the last axis no cell spans it.
        point, live = [], range(len(los))
        for j in range(len(cuts)):
            full = prod(slabs[j + 1:])
            section = {k: prod(map(sub, his[k][j + 1:], los[k][j + 1:])) for k in live}
            for t in range(slabs[j]):
                spanning = [k for k in live if los[k][j] <= t < his[k][j]]
                if sum(section[k] for k in spanning) < full:
                    break
            point.append(midpoint(j, t, t + 1))
            live = spanning
        return tuple(point)

    def _holders(self, v: Point, axes: Iterable[int]) -> list[int]:
        """The cells (by index) holding v on the given 0-based axes, by the one
        half-open rule: v_j lies in slab t, the rank of the last cut at or
        below it (the domain top in the last slab), and lo_r <= t < hi_r."""
        slabs = []
        for j in axes:
            t = bisect_right(self.cuts[j], v[j])
            slabs.append((j, t - 1 - (t == len(self.cuts[j]) and v[j] == self.cuts[j][-1])))
        return [k for k, (lo, hi) in enumerate(zip(self.lows, self.highs))
                if all(lo[j] <= t < hi[j] for j, t in slabs)]

    def slice_cells(self, v: Point, fixed: Iterable[int]) -> list[Cell]:
        """The cells meeting the slice x_S = v_S. Only the fixed axes are
        tested: cell boxes are non-degenerate, so free axes always meet."""
        return [self.cells[k] for k in self._holders(v, [fid - 1 for fid in fixed])]

    def cell_at(self, point: Point) -> Cell:
        owners = self.slice_cells(point, self.space.ids)
        if len(owners) != 1:
            raise ValidationError(f"partition violated at {point}: {len(owners)} cells")
        return owners[0]

    def output(self, point: Point) -> Fraction:
        # With every feature fixed the two extremes are the affine's value.
        return _affine_extremes(self.cell_at(point), point, frozenset(self.space.ids))[0]

    def slice_outputs(self, v: Point, fixed: frozenset[int]) -> Iterator[Fraction]:
        """The closure extremes of the affine on each cell pinned to
        x_S = v_S. Values on open faces are approached by interior points,
        so both quantifiers over the slice are decided by the extremes."""
        for cell in self.slice_cells(v, fixed):
            yield from _affine_extremes(cell, v, fixed)

    def disagreements(self, v: Point, dissimilar: Callable[[Value], bool]) -> Iterator[int]:
        """Every weak contrastive explanation C (bit j: feature j+1): the
        slice fixing the other features holds a ``dissimilar`` closure
        extreme. Each C scans every cell (see :func:`guard_slices`)."""
        guard_slices(self, 1 << self.space.m, "coalition table")
        for free in range(1 << self.space.m):
            fixed = frozenset(i for i in self.space.ids if not free >> i - 1 & 1)
            if any(map(dissimilar, self.slice_outputs(v, fixed))):
                yield free

    def slice_expectation(self, v: Point, fixed: frozenset[int]) -> Fraction:
        # An affine's mean over the free sub-box is its value at the centre,
        # which is the mean of its two extreme corners.
        total = Fraction(0)
        for cell in self.slice_cells(v, fixed):
            lo, hi = _affine_extremes(cell, v, fixed)
            total += prod(b_hi - b_lo for j, (b_lo, b_hi) in enumerate(cell.box)
                          if j + 1 not in fixed) * (lo + hi) / 2
        return total / prod(f.domain.width for f in self.space.features if f.id not in fixed)

    def output_range(self) -> tuple[Fraction, Fraction]:
        lows, highs = zip(*(_affine_extremes(cell, (), ()) for cell in self.cells))
        return min(lows), max(highs)


def _ranked(bounds: list) -> tuple[tuple, list[int]]:
    """The sorted distinct values of ``bounds`` and each bound's rank among
    them, keyed by exact ratio (two ints), which hashes cheaper than a Fraction."""
    keys = [x.as_integer_ratio() for x in bounds]
    cuts = sorted(dict(zip(keys, bounds)).values())
    rank = {x.as_integer_ratio(): r for r, x in enumerate(cuts)}
    return tuple(cuts), list(map(rank.__getitem__, keys))


def _affine_extremes(cell: Cell, v: Point, fixed) -> tuple[Fraction, Fraction]:
    """Min/max of the cell's affine over the closure of its box, with the
    fixed features pinned at v.

    The affine is separable, so extremes are reached coordinate-wise at the
    interval endpoints."""
    lo = hi = Fraction(cell.intercept)
    for j, (a, (b_lo, b_hi)) in enumerate(zip(cell.coeffs, cell.box)):
        if not a:
            continue
        if j + 1 in fixed:
            pinned = a * Fraction(v[j])
            lo += pinned
            hi += pinned
        elif a > 0:
            lo += a * b_lo
            hi += a * b_hi
        else:
            lo += a * b_hi
            hi += a * b_lo
    return lo, hi


Model = TabularModel | TreeModel | BoxPiecewiseModel


@dataclass(frozen=True)
class Instance:
    """A target point together with the model's prediction at it."""

    point: Point
    prediction: Value


def make_instance(model: Model, point: Iterable) -> Instance:
    """Build an Instance for ``point``, computing its prediction."""
    pt = tuple(point)
    return Instance(pt, predict(model, pt))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def predict(model: Model, point: Point) -> Value:
    """Evaluate the model's prediction function at ``point``."""
    point = tuple(point)
    model.space.check_point(point)
    return model.output(point)


def labelled_points(model: Model) -> Iterator[tuple[Point, Value]]:
    """Yield every point of a discrete model's space with the model's
    output there, in lexicographic domain order (slot order)."""
    if not model.space.all_discrete():
        raise UnsupportedOperationError("point enumeration needs a discrete feature space")
    return model.labelled_points()


def enumerate_points(model_or_space, constraint: Mapping[int, Value] | None = None) -> Iterator[Point]:
    """Yield all points matching a partial assignment, in lexicographic
    domain order. Only defined for fully discrete spaces."""
    space = model_or_space if isinstance(model_or_space, FeatureSpace) else model_or_space.space
    if not space.all_discrete():
        raise UnsupportedOperationError("point enumeration needs a discrete feature space")
    constraint = constraint or {}
    for fid, value in constraint.items():
        if fid not in space.ids:
            raise DomainError(f"constraint on unknown feature {fid}")
        if value not in space.domain(fid):
            raise DomainError(f"constraint value {value!r} outside domain of feature {fid}")
    return space.points(constraint)


def _product(axes: list) -> Iterator[tuple]:
    """The points of a product of axes in lexicographic order, refused
    above POINT_GUARD points so that no enumeration runs unbounded."""
    _guard(prod(map(len, axes)))
    return product(*axes)


def _guard(points: int) -> None:
    if points > POINT_GUARD:
        raise SizeLimitError(f"enumeration guarded at {POINT_GUARD} points, got {points}")


def guard_slices(model: Model, coalitions: int, run: str) -> None:
    """Refuse a ``run`` over the slices of ``coalitions`` distinct
    coalitions past POINT_GUARD units of work, before the first slice. A
    discrete slice holds at most |space| points, and the slices of all 2^m
    coalitions hold prod_j (1 + |D_j|). A box slice tests every cell and
    evaluates the m terms of each affine it meets, so it costs cells * m
    affine terms."""
    space = model.space
    if space.all_discrete():
        work = min(coalitions * space.size, prod(1 + radix for radix in space.radices))
        unit = "slice points"
    else:
        work, unit = coalitions * len(model.cells) * space.m, "affine terms"
    if work > POINT_GUARD:
        raise SizeLimitError(f"{run} guarded at {POINT_GUARD} {unit}, got {work}")


def conditional_expectation(model: Model, instance: Instance, fixed: Iterable[int]) -> Fraction:
    """E[pi(x) | x_S = v_S] under the uniform product distribution on the
    unconstrained features. Exact rational arithmetic throughout."""
    if model.value_kind != NUMERIC:
        raise NumericOutputError("conditional expectation needs numeric model outputs")
    fixed = frozenset(fixed)
    v = instance.point
    for fid in fixed:
        if fid not in model.space.ids:
            raise DomainError(f"unknown feature id {fid}")
        if v[fid - 1] not in model.space.domain(fid):
            raise DomainError(f"value {v[fid - 1]!r} outside domain of feature {fid}")
    return model.slice_expectation(v, fixed)


def output_range(model: Model) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of the prediction function over the whole space."""
    if model.value_kind != NUMERIC:
        raise NumericOutputError("output range needs numeric model outputs")
    return model.output_range()


def tabulate(model: TreeModel) -> TabularModel:
    """Exhaustively expand a tree into the equivalent tabular model."""
    return TabularModel(model.space, tuple(y for _, y in labelled_points(model)),
                        model.value_kind)


def _check_values(values, value_kind: str) -> None:
    if value_kind == NUMERIC:
        bad = [v for v in values if not isinstance(v, (int, Fraction))]
        if bad:
            raise ValidationError(f"numeric model holds non-numeric value {bad[0]!r}")
    elif value_kind == CATEGORICAL:
        pass  # opaque labels, any hashable is fine
    else:
        raise ValidationError(f"unknown value kind {value_kind!r}")
