"""Small ML models with enumerable or analytically integrable semantics.

Three model kinds are supported, all immutable after validation:

* ``TabularModel``  - an explicit lookup table over a finite feature space;
* ``TreeModel``     - a decision/regression tree over discrete features;
* ``BoxPiecewiseModel`` - an axis-aligned piecewise-affine function over a
  product of real intervals.

Every model exposes a total prediction function through :func:`predict`,
and numeric-output models additionally support exact conditional
expectations under the uniform, feature-independent product distribution.
All arithmetic on numeric values is exact (``fractions.Fraction``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    DomainError,
    NumericOutputError,
    UnsupportedOperationError,
    ValidationError,
)

Value = Union[Fraction, int, str]
Point = tuple

NUMERIC = "numeric"
CATEGORICAL = "categorical"
_MISSING = object()  # a point the table has no entry for


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

    def contains(self, point: Point) -> bool:
        return len(point) == self.m and all(
            x in f.domain for x, f in zip(point, self.features)
        )

    def check_point(self, point: Point) -> None:
        if len(point) != self.m:
            raise DomainError(f"point has {len(point)} coordinates, expected {self.m}")
        for x, f in zip(point, self.features):
            if x not in f.domain:
                raise DomainError(f"value {x!r} outside domain of feature {f.id} ({f.name})")


# ---------------------------------------------------------------------------
# Model kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TabularModel:
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
        outputs = tuple(self.table.get(pt, _MISSING) for pt in _space_points(self.space))
        if len(outputs) != len(self.table) or any(y is _MISSING for y in outputs):
            expected = set(_space_points(self.space))
            got = set(self.table)
            missing = expected - got
            extra = got - expected
            parts = []
            if missing:
                parts.append(f"missing {len(missing)} points, e.g. {sorted(missing)[0]}")
            if extra:
                parts.append(f"{len(extra)} points outside the space, e.g. {sorted(extra)[0]}")
            raise ValidationError("table is not total: " + "; ".join(parts))
        object.__setattr__(self, "outputs", outputs)
        _check_values(self.table.values(), self.value_kind)
        if len(set(self.table.values())) < 2:
            raise ValidationError("model is constant; a non-constant prediction function is required")


@dataclass(frozen=True)
class TreeLeaf:
    value: Value


@dataclass(frozen=True)
class TreeNode:
    """Internal node: tests one feature, one child per domain-value group."""

    feature: int
    edges: tuple[tuple[tuple, int], ...]  # (values, child id) pairs


@dataclass(frozen=True)
class TreeModel:
    """Decision/regression tree over discrete features.

    Each root-to-leaf path tests a feature at most once and every node's
    edges partition its feature's domain, so the induced function is total.
    """

    space: FeatureSpace
    nodes: Mapping[int, Union[TreeNode, TreeLeaf]]
    root: int
    value_kind: str = NUMERIC

    def __post_init__(self):
        if not self.space.all_discrete():
            raise ValidationError("tree models need all-discrete domains")
        self._validate()

    def _validate(self) -> None:
        seen: set[int] = set()

        def walk(node_id: int, tested: frozenset[int]) -> None:
            if node_id not in self.nodes:
                raise ValidationError(f"tree references unknown node id {node_id}")
            seen.add(node_id)
            node = self.nodes[node_id]
            if isinstance(node, TreeLeaf):
                return
            if node.feature in tested:
                raise ValidationError(f"feature {node.feature} tested twice on one path")
            if node.feature not in self.space.ids:
                raise ValidationError(f"tree tests unknown feature {node.feature}")
            domain = self.space.domain(node.feature)
            covered: list = []
            for values, child in node.edges:
                for v in values:
                    if v not in domain:
                        raise ValidationError(
                            f"edge value {v!r} outside domain of feature {node.feature}")
                    covered.append(v)
                walk(child, tested | {node.feature})
            if len(covered) != len(set(covered)):
                raise ValidationError(f"node {node_id}: a domain value maps to two children")
            if set(covered) != set(domain.values):
                raise ValidationError(f"node {node_id}: edges do not cover the domain")

        walk(self.root, frozenset())
        unreachable = set(self.nodes) - seen
        if unreachable:
            raise ValidationError(f"unreachable tree nodes: {sorted(unreachable)}")
        leaf_values = [n.value for n in self.nodes.values() if isinstance(n, TreeLeaf)]
        _check_values(leaf_values, self.value_kind)
        if len(set(leaf_values)) < 2:
            raise ValidationError("model is constant; a non-constant prediction function is required")


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

    def __post_init__(self):
        if not self.space.all_interval():
            raise ValidationError("box-piecewise models need all-interval domains")
        if self.value_kind != NUMERIC:
            raise ValidationError("box-piecewise models are numeric-valued")
        if not self.cells:
            raise ValidationError("box-piecewise model has no cells")
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
        for mid_point in product(*axes_mids):
            owners = [k for k, cell in enumerate(self.cells)
                      if self._cell_contains(cell, mid_point)]
            if len(owners) != 1:
                kind = "no cell" if not owners else f"cells {owners}"
                raise ValidationError(
                    f"cells do not partition the space: point {mid_point} lies in {kind}")
        # Constant iff every coefficient is zero and all intercepts agree.
        if len({(cell.intercept, cell.coeffs) for cell in self.cells}) == 1 and all(
                c == 0 for c in self.cells[0].coeffs):
            raise ValidationError(
                "model is constant; a non-constant prediction function is required")

    def _cell_contains(self, cell: Cell, point: Point) -> bool:
        for j, ((lo, hi), x) in enumerate(zip(cell.box, point)):
            top = self.space.domain(j + 1).hi
            if x < lo:
                return False
            if x > hi or (x == hi and hi != top):
                return False
        return True

    def cell_at(self, point: Point) -> Cell:
        owners = [c for c in self.cells if self._cell_contains(c, point)]
        if len(owners) != 1:
            raise ValidationError(f"partition violated at {point}: {len(owners)} cells")
        return owners[0]


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
    if isinstance(model, TabularModel):
        return model.table[point]
    if isinstance(model, TreeModel):
        return _tree_output(model, point)
    if isinstance(model, BoxPiecewiseModel):
        cell = model.cell_at(point)
        return _affine_at(cell, point)
    raise TypeError(f"unknown model type {type(model)!r}")


def _tree_output(model: TreeModel, point: Point) -> Value:
    """Walk the tree from the root to the leaf that ``point`` reaches."""
    node = model.nodes[model.root]
    while isinstance(node, TreeNode):
        x = point[node.feature - 1]
        for values, child in node.edges:
            if x in values:
                node = model.nodes[child]
                break
        else:
            raise ValidationError(f"no edge for value {x!r} at a node testing feature {node.feature}")
    return node.value


def labelled_points(model: Model) -> Iterator[tuple[Point, Value]]:
    """Yield every point of a discrete model's space with the model's
    output there, in lexicographic domain order: the table's outputs for
    tabular models, one root-to-leaf walk per point for trees."""
    if not model.space.all_discrete():
        raise UnsupportedOperationError("point enumeration needs a discrete feature space")
    points = _space_points(model.space)
    if isinstance(model, TabularModel):
        return zip(points, model.outputs)
    return ((pt, _tree_output(model, pt)) for pt in points)


def _affine_at(cell: Cell, point: Point) -> Fraction:
    total = Fraction(cell.intercept)
    for a, x in zip(cell.coeffs, point):
        if a:
            total += a * Fraction(x)
    return total


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
    axes = []
    for f in space.features:
        if f.id in constraint:
            axes.append((constraint[f.id],))
        else:
            axes.append(f.domain.values)
    return product(*axes)


def _space_points(space: FeatureSpace) -> Iterator[Point]:
    return product(*(f.domain.values for f in space.features))


def space_size(space: FeatureSpace) -> int:
    n = 1
    for f in space.features:
        n *= len(f.domain.values)
    return n


def conditional_expectation(model: Model, instance: Instance, fixed: Iterable[int]) -> Fraction:
    """E[pi(x) | x_S = v_S] under the uniform product distribution on the
    unconstrained features. Exact rational arithmetic throughout."""
    if model.value_kind != NUMERIC:
        raise NumericOutputError("conditional expectation needs numeric model outputs")
    fixed = frozenset(fixed)
    for fid in fixed:
        if fid not in model.space.ids:
            raise DomainError(f"unknown feature id {fid}")
    if isinstance(model, BoxPiecewiseModel):
        return _box_conditional_expectation(model, instance.point, fixed)
    constraint = {fid: instance.point[fid - 1] for fid in fixed}
    total = Fraction(0)
    count = 0
    for point in enumerate_points(model, constraint):
        total += Fraction(predict(model, point))
        count += 1
    return total / count


def _box_conditional_expectation(model: BoxPiecewiseModel, v: Point,
                                 fixed: frozenset[int]) -> Fraction:
    m = model.space.m
    free = [j for j in range(m) if (j + 1) not in fixed]
    denom = Fraction(1)
    for j in free:
        denom *= model.space.domain(j + 1).width
    total = Fraction(0)
    for cell in model.cells:
        if not _cell_slice_nonempty(model, cell, v, fixed):
            continue
        # Integral of the affine over the free sub-box equals volume times
        # the value at the box midpoint.
        vol = Fraction(1)
        value = Fraction(cell.intercept)
        for j in range(m):
            lo, hi = cell.box[j]
            if (j + 1) in fixed:
                value += cell.coeffs[j] * Fraction(v[j])
            else:
                vol *= hi - lo
                value += cell.coeffs[j] * (lo + hi) / 2
        total += vol * value
    if not free:
        return total  # all features fixed: the sole contribution is pi(v)
    return total / denom


def _cell_slice_nonempty(model: BoxPiecewiseModel, cell: Cell, v: Point,
                         fixed: frozenset[int]) -> bool:
    """Does the cell intersect {x | x_S = v_S}? Fixed axes use half-open
    membership; free axes always intersect (cell boxes are non-degenerate)."""
    for fid in fixed:
        j = fid - 1
        lo, hi = cell.box[j]
        top = model.space.domain(fid).hi
        x = v[j]
        if x < lo or x > hi or (x == hi and hi != top):
            return False
    return True


def output_range(model: Model) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of the prediction function over the whole space."""
    if model.value_kind != NUMERIC:
        raise NumericOutputError("output range needs numeric model outputs")
    if isinstance(model, TabularModel):
        values = [Fraction(x) for x in model.table.values()]
        return min(values), max(values)
    if isinstance(model, TreeModel):
        values = [Fraction(n.value) for n in model.nodes.values() if isinstance(n, TreeLeaf)]
        return min(values), max(values)
    lo = hi = None
    for cell in model.cells:
        c_lo, c_hi = _affine_extremes(cell)
        lo = c_lo if lo is None else min(lo, c_lo)
        hi = c_hi if hi is None else max(hi, c_hi)
    return lo, hi


def _affine_extremes(cell: Cell) -> tuple[Fraction, Fraction]:
    """Min/max of the cell's affine over the closure of its box.

    The affine is separable, so extremes are reached coordinate-wise at the
    interval endpoints; values on the open faces are approached arbitrarily
    closely, which is what the quantifier checks need."""
    lo = hi = Fraction(cell.intercept)
    for a, (b_lo, b_hi) in zip(cell.coeffs, cell.box):
        if a > 0:
            lo += a * b_lo
            hi += a * b_hi
        elif a < 0:
            lo += a * b_hi
            hi += a * b_lo
    return lo, hi


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
