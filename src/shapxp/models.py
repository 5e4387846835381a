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

Each kind derives them from one primitive: box models each cell's integer
form over its own denominator (``Cell._integers``), the discrete kinds a
reader from slots to outputs. A discrete space
numbers its points by mixed radix (``FeatureSpace.slot``), and every
enumeration walks those slots lazily through the one guarded product of
axes; a table reads its dense ``outputs`` at a slot, a tree walks the
routes that one validating walk builds, reading each tested feature's
digit of the slot. The discrete kinds share every method but ``_read``
and ``disagreements``, which a table takes from its points and a tree from
its leaves. All arithmetic on numeric values is exact: on ints (the loader's
integral values), ``fractions.Fraction`` or ints over a known denominator.

The package imports neither data-class machinery nor ``typing``, which
would cost each process their import (with ``inspect``) and the building of
every class. Plain records are ``collections.namedtuple`` classes; a class
that validates, caches or keeps derived fields has one explicit
``__init__`` and derives from ``_Frozen``, which gives equality, hash and
repr over its ``_fields`` and refuses assignment, so every model is
immutable after validation. A ``cached_property`` still fills the
instance ``__dict__`` of a class that keeps one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, chain, compress, product, repeat
from math import lcm, prod
from operator import attrgetter, getitem, itemgetter, lt, mul, or_, sub

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


# Writes an attribute past _Frozen's refusal; only an __init__ calls it.
_set = object.__setattr__


class _Frozen:
    """Equality (same class only), hash and repr over the class's
    ``_fields``, its constructor's parameters in order; any other
    attribute is derived and left out. Attributes are written once, by
    ``__init__`` through ``_set``; assigning or deleting one raises
    AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copies and pickles are rebuilt through the constructor
        return type(self), self._key()


# ---------------------------------------------------------------------------
# Feature space
# ---------------------------------------------------------------------------

class DiscreteDomain(_Frozen):
    """Finite ordered list of admissible values for one feature. Each
    value's position in ``values`` is in ``index``: membership, the slot
    numbering and the loaders' column paths all read this one index."""

    __slots__ = ("values", "index")
    _fields = ("values",)

    def __init__(self, values: tuple):
        if not values:
            raise ValidationError("discrete domain must be non-empty")
        index = {x: k for k, x in enumerate(values)}
        if len(index) != len(values):
            raise ValidationError("discrete domain has duplicate values")
        _set(self, "values", values)
        _set(self, "index", index)

    def __contains__(self, value) -> bool:
        try:
            return value in self.index
        except TypeError:  # an unhashable value is in no domain
            return False


class IntervalDomain(_Frozen):
    """Closed real interval [lo, hi] with lo < hi."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if not lo < hi:
            raise ValidationError(f"interval domain needs lo < hi, got [{lo}, {hi}]")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    def __contains__(self, value) -> bool:
        try:
            return self.lo <= value <= self.hi
        except TypeError:
            return False

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


Domain = DiscreteDomain | IntervalDomain


Feature = namedtuple("Feature", "id name domain")  # id is 1-based


class FeatureSpace(_Frozen):
    """Ordered product of per-feature domains; feature ids are 1..m. It
    keeps a ``__dict__`` for its cached slot numbering."""

    _fields = ("features",)

    def __init__(self, features: tuple[Feature, ...]):
        if not features:
            raise ValidationError("feature space needs at least one feature")
        ids = [f.id for f in features]
        if ids != list(range(1, len(ids) + 1)):
            raise ValidationError(f"feature ids must be 1..m with no gaps, got {ids}")
        _set(self, "features", features)

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

class _EnumerableModel(_Frozen):
    """Semantics shared by the discrete kinds, all read by slot of the
    space's numbering. Subclasses define ``_read`` (slot -> output),
    ``_values`` (every output the model can produce, repeats allowed),
    ``_relabelled`` and ``disagreements``."""

    __slots__ = ()

    def output(self, point: Point) -> Value:
        return self._read(self.space.slot(point))

    def slice_outputs(self, v: Point, fixed: frozenset[int]) -> Iterator[Value]:
        """The output at every point x of the slice x_S = v_S, lazily."""
        return map(self._read, self.space.slots({j: v[j - 1] for j in fixed}))

    def slice_expectation(self, v: Point, fixed: frozenset[int]) -> Fraction:
        # The outputs repeat a few shared objects, so each distinct object
        # is weighted by its count, told apart by identity, not by hash.
        outputs = list(self.slice_outputs(v, fixed))
        firsts = {id(y): y for y in outputs}
        total = sum(firsts[k] * n for k, n in Counter(map(id, outputs)).items())
        return Fraction(total, len(outputs))

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
        return zip(self._agreements(v), map(self._read, self.space.slots()))

    def _agreements(self, v: Point) -> Iterator[int]:
        axes = [[1 << j if x == v[j] else 0 for x in f.domain.values]
                for j, f in enumerate(self.space.features)]
        return map(sum, _product(axes))

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


class TabularModel(_EnumerableModel):
    """Total lookup table over a fully discrete feature space, stored dense:
    ``outputs`` holds the output at every slot of the space's numbering,
    ``distinct`` the distinct outputs."""

    __slots__ = ("space", "outputs", "value_kind", "distinct")
    _fields = ("space", "outputs", "value_kind")

    def __init__(self, space: FeatureSpace, outputs: tuple, value_kind: str = NUMERIC):
        if not space.all_discrete():
            raise ValidationError("tabular models need all-discrete domains")
        outputs = tuple(outputs)
        if len(outputs) != space.size:
            raise ValidationError(f"table lists {len(outputs)} outputs for {space.size} points")
        # The outputs repeat a few objects (the loader parses each distinct
        # token once), so they are told apart by identity before hashing;
        # the first appearances, in slot order, are checked for the others.
        firsts = dict(zip(map(id, outputs), outputs)).values()
        if None in firsts:
            raise not_total(space, outputs)
        _check_values(firsts, value_kind)
        distinct = frozenset(firsts)
        if len(distinct) < 2:
            raise ValidationError("model is constant; a non-constant prediction function is required")
        _set(self, "space", space)
        _set(self, "outputs", outputs)
        _set(self, "value_kind", value_kind)
        _set(self, "distinct", distinct)

    @property
    def _read(self):
        return self.outputs.__getitem__

    def _values(self):
        return self.distinct

    def disagreements(self, v: Point, dissimilar: Callable[[Value], bool]) -> Iterator[int]:
        """The disagreement mask with v (bit j: x_j != v_j) of every point
        whose output is ``dissimilar``, tested once per output object."""
        full = (1 << self.space.m) - 1
        return map(full.__xor__, compress(self._agreements(v), verdicts(dissimilar, self.outputs)))

    def _relabelled(self, mapping: Mapping, value_kind: str) -> "TabularModel":
        return TabularModel(self.space, tuple(map(mapping.__getitem__, self.outputs)), value_kind)


def dense_slots(space: FeatureSpace) -> list:
    """One empty (None) output slot per point of a tabular model's space,
    refused above POINT_GUARD points before any slot is allocated."""
    if not space.all_discrete():
        raise ValidationError("tabular models need all-discrete domains")
    _guard(space.size)
    return [None] * space.size


def not_total(space: FeatureSpace, outputs, shown=tuple) -> ValidationError:
    """The error for a table with empty (None) slots; the example, made by
    ``shown``, is the first in slot order, since points may mix labels and
    rationals, which do not sort."""
    missing = [slot for slot, y in enumerate(outputs) if y is None]
    first = shown(f.domain.values[missing[0] // s % r]
                  for f, s, r in zip(space.features, space.strides, space.radices))
    return ValidationError(f"table is not total: missing {len(missing)} points, e.g. {first}")


class TreeLeaf(_Frozen):
    # A slotted class, not a namedtuple: TreeModel._read reads ``value``
    # once per slot, and a slot reads faster than a tuple field.
    __slots__ = _fields = ("value",)

    def __init__(self, value: Value):
        _set(self, "value", value)


TreeNode = namedtuple("TreeNode", "feature edges")
TreeNode.__doc__ = """Internal node: tests one feature, one child per domain-value group;
``edges`` holds (values, child id) pairs."""


class TreeModel(_EnumerableModel):
    """Decision/regression tree over discrete features.

    Every node but the root has exactly one parent, each root-to-leaf path
    tests a feature at most once and every node's edges partition its
    feature's domain, so the induced function is total. ``routes`` holds
    each internal node's route (0-based feature axis, child id per domain
    position), from _validate.
    """

    __slots__ = ("space", "nodes", "root", "value_kind", "routes")
    _fields = ("space", "nodes", "root", "value_kind")

    def __init__(self, space: FeatureSpace, nodes: Mapping[int, TreeNode | TreeLeaf],
                 root: int, value_kind: str = NUMERIC):
        if not space.all_discrete():
            raise ValidationError("tree models need all-discrete domains")
        _set(self, "space", space)
        _set(self, "nodes", nodes)
        _set(self, "root", root)
        _set(self, "value_kind", value_kind)
        _set(self, "routes", self._validate())

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
            feature, edges = node
            del path[depth:]
            if feature in path:
                raise ValidationError(f"feature {feature} tested twice on one path")
            if feature not in range(1, self.space.m + 1):
                raise ValidationError(f"tree tests unknown feature {feature}")
            path.append(feature)
            if not all(map(itemgetter(0), edges)):
                # its child would count as reached, yet no point reaches it
                raise ValidationError(f"node {node_id}: an edge routes no domain value")
            domain = self.space.domain(feature)
            try:  # route: domain position -> child
                route = {domain.index[v]: child for values, child in edges for v in values}
            except (KeyError, TypeError):  # TypeError: an unhashable value
                v = next(v for values, _ in edges for v in values if v not in domain)
                raise ValidationError(
                    f"edge value {v!r} outside domain of feature {feature}") from None
            if len(route) < sum(map(len, map(itemgetter(0), edges))):
                raise ValidationError(f"node {node_id}: a domain value maps to two children")
            if len(route) != len(domain.values):
                raise ValidationError(f"node {node_id}: edges do not cover the domain")
            routes[node_id] = (feature - 1, tuple(map(route.__getitem__, range(len(route)))))
            stack.extend((child, depth + 1) for _, child in reversed(edges))
        if len(seen) < len(self.nodes):
            unreachable = [nid for nid in self.nodes if nid not in seen]  # ids may not sort
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
        leaf's. One walk from the root over the routes, O(nodes)."""
        masks, outputs, stack, routes = [], [], [(self.root, 0)], self.routes
        at = tuple(map(getitem, self.space.indexes, v))  # v's domain positions
        while stack:
            node_id, mask = stack.pop()
            if node_id not in routes:  # a leaf
                masks.append(mask)
                outputs.append(self.nodes[node_id].value)
                continue
            j, children = routes[node_id]
            own = children[at[j]]  # the child v_j routes to
            stack.extend((child, mask if child == own else mask | 1 << j)
                         for child in dict.fromkeys(children))
        return compress(masks, verdicts(dissimilar, outputs))

    def _values(self) -> list:
        return [n.value for n in self.nodes.values() if isinstance(n, TreeLeaf)]

    def _relabelled(self, mapping: Mapping, value_kind: str) -> "TreeModel":
        nodes = {nid: TreeLeaf(mapping[n.value]) if isinstance(n, TreeLeaf) else n
                 for nid, n in self.nodes.items()}
        return TreeModel(self.space, nodes, self.root, value_kind)


class Cell(_Frozen):
    """One box of a piecewise-affine model: per-feature [lo, hi) bounds
    (closed at the domain's upper endpoint) and affine output
    a0 + sum_i coeffs[i] * x_i. It keeps a ``__dict__`` for its integer
    form."""

    _fields = ("box", "intercept", "coeffs")

    def __init__(self, box: tuple[tuple[Fraction, Fraction], ...], intercept: Fraction,
                 coeffs: tuple[Fraction, ...]):
        _set(self, "box", box)
        _set(self, "intercept", intercept)
        _set(self, "coeffs", coeffs)

    @cached_property
    def _integers(self) -> tuple:
        """The cell over E, the lcm of the denominators of its bounds,
        intercept and coefficients: (E, a0*E, (a_j*E), the ends
        (min(a_j*lo_j, a_j*hi_j)*E^2) and (max(...)*E^2), the spans
        ((hi_j - lo_j)*E), and its extremes over the whole box over E^2).
        Built on its first read, so validation does not pay for it."""
        m = len(self.coeffs)
        (a0, *rest), scale = _over_lcd((self.intercept, *self.coeffs, *chain(*self.box)))
        coeffs, lows, highs = rest[:m], rest[m::2], rest[m + 1::2]
        at_lo, at_hi = list(map(mul, coeffs, lows)), list(map(mul, coeffs, highs))
        low_ends, high_ends = tuple(map(min, at_lo, at_hi)), tuple(map(max, at_lo, at_hi))
        return (scale, a0, tuple(coeffs), low_ends, high_ends, tuple(map(sub, highs, lows)),
                a0 * scale + sum(low_ends), a0 * scale + sum(high_ends))


class BoxPiecewiseModel(_Frozen):
    """Axis-aligned piecewise-affine regressor; cells partition the space.

    Cell intervals are half-open [lo, hi) except that hi equal to the
    domain's upper endpoint is closed, which makes membership unambiguous
    and the partition check decidable. Both compare integers on a rank
    grid: each axis's sorted distinct ``cuts`` (cell bounds and domain
    endpoints), and each cell's bounds as their ranks, per cell and per
    axis in ``lows`` and ``highs``."""

    __slots__ = ("space", "cells", "value_kind", "cuts", "lows", "highs")
    _fields = ("space", "cells", "value_kind")

    def __init__(self, space: FeatureSpace, cells: tuple[Cell, ...], value_kind: str = NUMERIC):
        if not space.all_interval():
            raise ValidationError("box-piecewise models need all-interval domains")
        if value_kind != NUMERIC:
            raise ValidationError("box-piecewise models are numeric-valued")
        if not cells:
            raise ValidationError("box-piecewise model has no cells")
        m = space.m
        # Errors come cell by cell, length first: rank the cells before a wrong length.
        short = next((k for k, c in enumerate(cells)
                      if len(c.box) != m or len(c.coeffs) != m), len(cells))
        boxes = list(map(attrgetter("box"), cells[:short]))
        cuts, ranks = zip(*(_ranked([f.domain.lo, f.domain.hi,
                                     *chain.from_iterable(map(itemgetter(j), boxes))])
                            for j, f in enumerate(space.features)))
        _set(self, "space", space)
        _set(self, "cells", cells)
        _set(self, "value_kind", value_kind)
        _set(self, "cuts", cuts)
        _set(self, "lows", tuple(zip(*(r[2::2] for r in ranks))))
        _set(self, "highs", tuple(zip(*(r[3::2] for r in ranks))))
        # Each axis at once; the loop only names the first bad cell.
        if not all(min(r) == r[0] and max(r) == r[1] and all(map(lt, r[2::2], r[3::2]))
                   for r in ranks):
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
        """None if the cells partition the space, else a point in no cell or in
        several (the centre of the overlap of the pair that _overlap names). Each
        cell is a union of the grid's slabs, and interior-disjoint cells are disjoint
        under the half-open rule: a partition has no overlap and counts every slab."""
        cuts, los, his = self.cuts, self.lows, self.highs
        slabs = [len(axis) - 1 for axis in cuts]

        def midpoint(j, lo, hi):
            return (cuts[j][lo] + cuts[j][hi]) / 2

        pair = self._overlap()
        if pair is not None:
            both = itemgetter(*pair)
            return tuple(map(midpoint, range(len(cuts)), map(max, *both(los)), map(min, *both(his))))
        if sum(map(prod, map(map, repeat(sub), his, los))) == prod(slabs):
            return None
        # A gap: on each axis, fix the midpoint of the first slab whose cells
        # count its cross-section short. On the last axis no cell spans it.
        # Each cell adds its cross-section from its lower rank on and takes
        # it back from its upper one, so one running sum counts every slab.
        point, live = [], range(len(los))
        for j in range(len(cuts)):
            full = prod(slabs[j + 1:])
            counted = [0] * len(cuts[j])
            for k in live:
                section = prod(map(sub, his[k][j + 1:], los[k][j + 1:]))
                counted[los[k][j]] += section
                counted[his[k][j]] -= section
            t = next(t for t, total in enumerate(accumulate(counted)) if total < full)
            point.append(midpoint(j, t, t + 1))
            live = [k for k in live if los[k][j] <= t < his[k][j]]
        return tuple(point)

    def _overlap(self) -> tuple[int, int] | None:
        """Two overlapping cells, or None (orthogonal box intersection; Six and Wood,
        BIT 1980). Bit p of a mask is the cell at position p by lower rank on the sort
        axis, the axis with the most of them: there the later cells meeting cell a are
        those up to the last one starting below hi_a. On each other axis started[r]
        holds the cells with lower rank below r and ended[r] those with upper rank at
        most r, so the cells meeting a are started[hi_a] & ~ended[lo_a] there; the
        first after a meeting it on every axis is named. The unions, at most
        2 * cuts * k bits per other axis, are refused past 2^28 in all."""
        los, his = self.lows, self.highs
        axis = max(range(len(los[0])), key=lambda j: len({lo[j] for lo in los}))
        others = [j for j in range(len(los[0])) if j != axis]
        if (bits := 2 * len(los) * sum(len(self.cuts[j]) for j in others)) > POINT_GUARD << 8:
            raise SizeLimitError(f"partition check guarded at {POINT_GUARD << 8} bits, got {bits}")
        order = sorted(range(len(los)), key=lambda k: los[k][axis])
        firsts = [los[k][axis] for k in order]
        started, ended = [], []
        for j in others:
            starts, ends = [0] * len(self.cuts[j]), [0] * len(self.cuts[j])
            for p, k in enumerate(order):
                starts[los[k][j]] |= 1 << p
                ends[his[k][j]] |= 1 << p
            started.append([0, *accumulate(starts, or_)])
            ended.append(list(accumulate(ends, or_)))
        for p, a in enumerate(order):
            # The later cells starting below hi_a: positions p + 1 .. c - 1, where c
            # counts the lower ranks below hi_a, a's own and those before it among them.
            meet = (1 << bisect_left(firsts, his[a][axis])) - (2 << p)
            for j, s, e in zip(others, started, ended):
                meet &= s[his[a][j]] ^ e[los[a][j]]  # ended[lo] lies within started[hi]
            if meet:
                return a, order[(meet & -meet).bit_length() - 1]
        return None

    def _slab(self, j: int, x) -> int:
        """The slab of v_j = x on axis j by the one half-open rule: the rank
        of the last cut at or below x, the domain top in the last slab."""
        cuts = self.cuts[j]
        t = bisect_right(cuts, x)
        return t - 1 - (t == len(cuts) and x == cuts[-1])

    def _holders(self, v: Point, axes: Iterable[int]) -> list[int]:
        """The cells (by index) holding v on the given 0-based axes: those
        with lo_r <= t < hi_r for v_j's slab t on each, one axis at a time."""
        held, los, his = range(len(self.cells)), self.lows, self.highs
        for j in axes:
            t = self._slab(j, v[j])
            held = [k for k in held if los[k][j] <= t < his[k][j]]
        return list(held)

    def cell_at(self, point: Point) -> Cell:
        owners = self._holders(point, range(self.space.m))
        if len(owners) != 1:
            raise ValidationError(f"partition violated at {point}: {len(owners)} cells")
        return self.cells[owners[0]]

    # Every quantity below is read in integers: each cell over its own
    # denominator E (see Cell._integers), the point v over d, the lcm of its
    # coordinates' denominators. An affine's extremes over a cell's closure
    # are reached coordinate-wise at the interval ends (it is separable),
    # so over E^2 * d they are (a0*d + sum_fixed a_j*v_j) * E plus d times
    # the free axes' low or high ends.

    def output(self, point: Point) -> Fraction:
        # The affine at the point, over E * d.
        scale, a0, coeffs = self.cell_at(point)._integers[:3]
        numerators, d = _over_lcd(point)
        return Fraction(a0 * d + sum(map(mul, coeffs, numerators)), scale * d)

    def _extremes(self, v: Point, fixed: Iterable[int]) -> tuple[int, list]:
        """d, and each cell meeting the slice x_S = v_S as its row of
        ``Cell._integers`` with its closure extremes there over E^2 * d."""
        numerators, d = _over_lcd(v)
        axes = [j - 1 for j in fixed]
        free = [j for j in range(self.space.m) if j + 1 not in fixed]
        cells = []
        for k in self._holders(v, axes):
            row = scale, a0, coeffs, lows, highs, *_ = self.cells[k]._integers
            pinned = (a0 * d + sum(coeffs[j] * numerators[j] for j in axes)) * scale
            cells.append((row, pinned + d * sum(lows[j] for j in free),
                          pinned + d * sum(highs[j] for j in free)))
        return d, cells

    def slice_outputs(self, v: Point, fixed: frozenset[int]) -> Iterator[Fraction]:
        """The closure extremes of the affine on each cell pinned to
        x_S = v_S. Values on open faces are approached by interior points,
        so both quantifiers over the slice are decided by the extremes."""
        d, cells = self._extremes(v, fixed)
        for (scale, *_), low, high in cells:
            yield Fraction(low, scale * scale * d)
            yield Fraction(high, scale * scale * d)

    def disagreements(self, v: Point, dissimilar: Callable[[Value], bool]) -> Iterator[int]:
        """Every weak contrastive explanation C (bit j: feature j+1): the
        slice fixing the other features holds a closure extreme outside the
        band y0 +- delta of ``dissimilar``, a
        :class:`~shapxp.similarity.Dissimilar` (delta None reads as 0),
        scaled once per cell denominator E to E^2 * d. A slice that fixes
        features meets only the cells holding v on their axes, and every
        cell meets the one that fixes none, which is a disagreement as soon
        as one cell's range leaves the band. The guard charges every cell
        per C (see :func:`guard_slices`)."""
        m = self.space.m
        guard_slices(self, 1 << m, "coalition table")
        numerators, d = _over_lcd(v)
        y0, delta = Fraction(dissimilar.prediction), dissimilar.delta or 0
        below_n, below_d = (y0 - delta).as_integer_ratio()
        above_n, above_d = (y0 + delta).as_integer_ratio()
        bands = {}

        def leaves(scale, low, high):  # low and high over E^2 * d
            if scale not in bands:
                s = scale * scale * d
                bands[scale] = -(-below_n * s // below_d), above_n * s // above_d
            return low < bands[scale][0] or high > bands[scale][1]

        held, full, found = {}, (1 << m) - 1, set()
        for j in range(m):
            for k in self._holders(v, [j]):
                held.setdefault(k, []).append(j)
        for k, axes in held.items():
            scale, _, coeffs, lows, highs, _, bottom, top = self.cells[k]._integers
            slices = [(full, bottom * d, top * d)]  # (C, low, high) of each slice it meets
            for j in axes:
                pinned = coeffs[j] * numerators[j] * scale
                to_lo, to_hi = pinned - d * lows[j], pinned - d * highs[j]
                slices += [(free ^ 1 << j, lo + to_lo, hi + to_hi) for free, lo, hi in slices]
            found.update(free for free, lo, hi in slices if leaves(scale, lo, hi))
        if full not in found and any(leaves(scale, bottom * d, top * d) for scale, *_, bottom, top
                                     in (cell._integers for cell in self.cells)):
            found.add(full)
        return iter(sorted(found))

    def slice_expectation(self, v: Point, fixed: frozenset[int]) -> Fraction:
        # An affine's mean over the free sub-box is its value at the centre,
        # the mean of its two extremes; over E^(free+2) * 2d each cell adds
        # its free volume times their sum, and one Fraction sums each E's.
        d, cells = self._extremes(v, fixed)
        free = [j for j in range(self.space.m) if j + 1 not in fixed]
        sums = {}
        for (scale, *_, spans, _, _), low, high in cells:
            sums[scale] = sums.get(scale, 0) + prod(spans[j] for j in free) * (low + high)
        # Added pairwise: a running sum's denominator grows at every step.
        terms = [Fraction(n, scale ** (len(free) + 2) * 2 * d) for scale, n in sums.items()]
        while len(terms) > 1:
            terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
        return terms[0] / prod(self.space.features[j].domain.width for j in free)

    def output_range(self) -> tuple[Fraction, Fraction]:
        # Each cell's extremes are over its E^2: compared by cross-multiplying.
        lo = hi = None
        for scale, *_, bottom, top in (cell._integers for cell in self.cells):
            s = scale * scale
            if lo is None or bottom * lo[1] < lo[0] * s:
                lo = bottom, s
            if hi is None or top * hi[1] > hi[0] * s:
                hi = top, s
        return Fraction(*lo), Fraction(*hi)


def _ranked(bounds: list) -> tuple[tuple, list[int]]:
    """The sorted distinct values of ``bounds`` (a few shared objects, each read
    once) and each bound's rank among them, keyed by exact ratio and sorted as
    integers over the lcm of the denominators, unless many coprime ones could
    make that lcm pass 1024 bits."""
    distinct = list(dict(zip(map(id, bounds), bounds)).values())
    ratios = [x.as_integer_ratio() for x in distinct]
    value = dict(zip(ratios, distinct))
    denominators = {q for _, q in value}
    d = lcm(*denominators) if sum(map(int.bit_length, denominators)) <= 1024 else 0
    order = sorted(value, key=(lambda r: r[0] * (d // r[1])) if d else value.__getitem__)
    rank = dict(zip(order, range(len(order))))
    by_id = dict(zip(map(id, distinct), map(rank.__getitem__, ratios)))
    return tuple(map(value.__getitem__, order)), list(map(by_id.__getitem__, map(id, bounds)))


def _over_lcd(values: Iterable) -> tuple[list[int], int]:
    """Rational values as integer numerators over their least common denominator."""
    ratios = [x.as_integer_ratio() for x in values]
    denominator = lcm(*(q for _, q in ratios))
    return [n * (denominator // q) for n, q in ratios], denominator


def verdicts(test: Callable[[Value], bool], outputs: list) -> Iterator[bool]:
    """test(y) for each of ``outputs``, called once per distinct object:
    outputs repeat a few shared objects, told apart by identity, not hash."""
    firsts = dict(zip(map(id, outputs), outputs))
    verdict = {k: test(y) for k, y in firsts.items()}
    return map(verdict.__getitem__, map(id, outputs))


Model = TabularModel | TreeModel | BoxPiecewiseModel


Instance = namedtuple("Instance", "point prediction")
Instance.__doc__ = """A target point together with the model's prediction at it."""


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
