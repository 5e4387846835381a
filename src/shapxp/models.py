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
  relabeling.

Each kind derives them from one primitive: box cells ``_affine_extremes``,
trees the routes that one validating walk builds, discrete spaces the one
guarded product of axes ``FeatureSpace.points``. Tabular and tree models
share the slice, expectation and range methods.
All arithmetic on numeric values is exact (``fractions.Fraction``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    DomainError,
    NumericOutputError,
    SizeLimitError,
    UnsupportedOperationError,
    ValidationError,
)

Value = Union[Fraction, int, str]
Point = tuple

NUMERIC = "numeric"
CATEGORICAL = "categorical"
_MISSING = object()  # a point the table has no entry for
POINT_GUARD = 2 ** 20  # points one enumeration of a discrete space may visit


# ---------------------------------------------------------------------------
# Feature space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteDomain:
    """Finite ordered list of admissible values for one feature."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValidationError("discrete domain must be non-empty")
        if len(set(self.values)) != len(self.values):
            raise ValidationError("discrete domain has duplicate values")

    def __contains__(self, value) -> bool:
        return value in self.values


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


Domain = Union[DiscreteDomain, IntervalDomain]


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


# ---------------------------------------------------------------------------
# Model kinds
# ---------------------------------------------------------------------------

class _EnumerableModel:
    """Semantics shared by the discrete kinds, which enumerate a slice point
    by point. Subclasses define ``output``, ``_values`` (every output the
    model can produce, with repeats) and ``_relabelled``."""

    def slice_outputs(self, v: Point, fixed: frozenset[int]) -> Iterator[Value]:
        """The output at every point x of the slice x_S = v_S."""
        return map(self.output, self.space.points({j: v[j - 1] for j in fixed}))

    def slice_expectation(self, v: Point, fixed: frozenset[int]) -> Fraction:
        outputs = list(self.slice_outputs(v, fixed))
        return sum(outputs, Fraction(0)) / len(outputs)

    def output_range(self) -> tuple[Fraction, Fraction]:
        # Numeric outputs are ints or Fractions, which compare exactly, so
        # only the two extremes are converted.
        values = self._values()
        return Fraction(min(values)), Fraction(max(values))

    # Every point with its output, in lexicographic point order; the product
    # of per-feature agreement bits in masked_outputs runs in the same order.
    def labelled_points(self) -> Iterator[tuple[Point, Value]]:
        return ((pt, self.output(pt)) for pt in self.space.points())

    def masked_outputs(self, v: Point) -> Iterator[tuple[int, Value]]:
        """(agreement mask with v, output) of every point of the space."""
        axes = [[1 << j if x == v[j] else 0 for x in f.domain.values]
                for j, f in enumerate(self.space.features)]
        return zip(map(sum, _product(axes)), (y for _, y in self.labelled_points()))

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
    """Total lookup table over a fully discrete feature space."""

    space: FeatureSpace
    table: Mapping[Point, Value]
    value_kind: str = NUMERIC
    # The table's values in lexicographic point order, read while checking
    # that the table is total.
    outputs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.space.all_discrete():
            raise ValidationError("tabular models need all-discrete domains")
        outputs = tuple(self.table.get(pt, _MISSING) for pt in self.space.points())
        if len(outputs) != len(self.table) or any(y is _MISSING for y in outputs):
            # Examples are the first in space and table order: points may
            # mix labels and rationals, which do not sort.
            missing = [pt for pt, y in zip(self.space.points(), outputs) if y is _MISSING]
            expected = set(self.space.points())
            extra = [pt for pt in self.table if pt not in expected]
            parts = []
            if missing:
                parts.append(f"missing {len(missing)} points, e.g. {missing[0]}")
            if extra:
                parts.append(f"{len(extra)} points outside the space, e.g. {extra[0]}")
            raise ValidationError("table is not total: " + "; ".join(parts))
        object.__setattr__(self, "outputs", outputs)
        _check_values(self.table.values(), self.value_kind)
        if len(set(self.table.values())) < 2:
            raise ValidationError("model is constant; a non-constant prediction function is required")

    def output(self, point: Point) -> Value:
        return self.table[point]

    def labelled_points(self) -> Iterator[tuple[Point, Value]]:
        return zip(self.space.points(), self.outputs)

    def _values(self):
        return self.table.values()

    def _relabelled(self, mapping: Mapping, value_kind: str) -> "TabularModel":
        return TabularModel(
            self.space, {pt: mapping[y] for pt, y in self.table.items()}, value_kind)


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
    nodes: Mapping[int, Union[TreeNode, TreeLeaf]]
    root: int
    value_kind: str = NUMERIC
    # Each internal node's route {domain value: child id}, from _validate.
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
            route = {v: child for values, child in node.edges for v in values}
            for v in route:
                if v not in domain:
                    raise ValidationError(
                        f"edge value {v!r} outside domain of feature {node.feature}")
            if len(route) < sum(len(values) for values, _ in node.edges):
                raise ValidationError(f"node {node_id}: a domain value maps to two children")
            if len(route) != len(domain.values):
                raise ValidationError(f"node {node_id}: edges do not cover the domain")
            # Keyed by the domain's own values, which enumerated points hold, a
            # lookup matches its key by identity and skips Fraction.__eq__.
            routes[node_id] = {x: route[x] for x in domain.values}
            stack.extend((child, depth + 1) for _, child in reversed(node.edges))
        unreachable = [nid for nid in self.nodes if nid not in seen]  # ids may not sort
        if unreachable:
            raise ValidationError(f"unreachable tree nodes: {unreachable}")
        leaf_values = self._values()
        _check_values(leaf_values, self.value_kind)
        if len(set(leaf_values)) < 2:
            raise ValidationError("model is constant; a non-constant prediction function is required")
        return routes

    def output(self, point: Point) -> Value:
        """Follow the routes from the root to the leaf that ``point`` reaches."""
        node_id, routes, nodes = self.root, self.routes, self.nodes
        while node_id in routes:
            node_id = routes[node_id][point[nodes[node_id].feature - 1]]
        return nodes[node_id].value

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
    and the partition check decidable.
    """

    space: FeatureSpace
    cells: tuple[Cell, ...]
    value_kind: str = NUMERIC
    # Each feature's domain upper endpoint, where cell intervals close.
    tops: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.space.all_interval():
            raise ValidationError("box-piecewise models need all-interval domains")
        if self.value_kind != NUMERIC:
            raise ValidationError("box-piecewise models are numeric-valued")
        if not self.cells:
            raise ValidationError("box-piecewise model has no cells")
        object.__setattr__(self, "tops", tuple(f.domain.hi for f in self.space.features))
        self._validate()

    def _validate(self) -> None:
        m = self.space.m
        for k, cell in enumerate(self.cells):
            if len(cell.box) != m or len(cell.coeffs) != m:
                raise ValidationError(f"cell {k}: box/coeffs length must equal {m}")
            for j, (lo, hi) in enumerate(cell.box):
                dom = self.space.domain(j + 1)
                if not (dom.lo <= lo < hi <= dom.hi):
                    raise ValidationError(
                        f"cell {k}: interval [{lo}, {hi}) invalid for feature {j + 1}")
        # Partition check: refine all cell bounds into a grid and require each
        # grid box's midpoint to lie in exactly one cell.  With the fixed
        # half-open convention this is equivalent to an exact partition.
        axes_mids = []
        for j in range(m):
            dom = self.space.domain(j + 1)
            cuts = {dom.lo, dom.hi}
            for cell in self.cells:
                cuts.update(cell.box[j])
            cuts = sorted(cuts)
            axes_mids.append([(a + b) / 2 for a, b in zip(cuts, cuts[1:])])
        axes = range(m)
        for mid_point in product(*axes_mids):
            owners = [k for k, cell in enumerate(self.cells)
                      if self._holds(cell, mid_point, axes)]
            if len(owners) != 1:
                kind = "no cell" if not owners else f"cells {owners}"
                raise ValidationError(
                    f"cells do not partition the space: point {mid_point} lies in {kind}")
        # Constant iff every coefficient is zero and all intercepts agree.
        if len({(cell.intercept, cell.coeffs) for cell in self.cells}) == 1 and all(
                c == 0 for c in self.cells[0].coeffs):
            raise ValidationError(
                "model is constant; a non-constant prediction function is required")

    def _holds(self, cell: Cell, point: Point, axes: Iterable[int]) -> bool:
        """Does the cell's box hold ``point`` on the given 0-based axes?
        This is the one definition of the half-open membership rule."""
        box, tops = cell.box, self.tops
        for j in axes:
            lo, hi = box[j]
            x = point[j]
            if x < lo or x > hi or (x == hi and hi != tops[j]):
                return False
        return True

    def slice_cells(self, v: Point, fixed: Iterable[int]) -> list[Cell]:
        """The cells meeting the slice x_S = v_S. Only the fixed axes are
        tested: cell boxes are non-degenerate, so free axes always meet."""
        axes = [fid - 1 for fid in fixed]
        return [cell for cell in self.cells if self._holds(cell, v, axes)]

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


Model = Union[TabularModel, TreeModel, BoxPiecewiseModel]


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
    output there, in lexicographic domain order: the table's outputs for
    tabular models, one root-to-leaf walk per point for trees."""
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
    size = prod(map(len, axes))
    if size > POINT_GUARD:
        raise SizeLimitError(f"enumeration guarded at {POINT_GUARD} points, got {size}")
    return product(*axes)


def space_size(space: FeatureSpace) -> int:
    return prod(len(f.domain.values) for f in space.features)


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
    return TabularModel(model.space, dict(labelled_points(model)), model.value_kind)


def _check_values(values, value_kind: str) -> None:
    if value_kind == NUMERIC:
        bad = [v for v in values if not isinstance(v, (int, Fraction))]
        if bad:
            raise ValidationError(f"numeric model holds non-numeric value {bad[0]!r}")
    elif value_kind == CATEGORICAL:
        pass  # opaque labels, any hashable is fine
    else:
        raise ValidationError(f"unknown value kind {value_kind!r}")
