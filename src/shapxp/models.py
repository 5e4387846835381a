"""Small ML models with enumerable or analytically integrable semantics.

Three model kinds are supported, all immutable after validation:

* ``TabularModel``  - an explicit lookup table over a finite feature space;
* ``TreeModel``     - a decision/regression tree over discrete features;
* ``BoxPiecewiseModel`` - an axis-aligned piecewise-affine function over a
  product of real intervals.

Each kind owns its semantics through one method set; the operations at the
end of this module check their inputs and then call it:

* ``output(point)`` - the prediction at an in-domain point, unchecked;
* ``slice_holds(v, S, dissimilar)`` - does the slice {x | x_S = v_S}, bit j
  of the mask S fixing feature j + 1, hold a ``dissimilar`` output: the
  discrete kinds test the output at each point (``slice_outputs``, theirs
  only), box models each cell's closure extremes with ``Dissimilar.band``;
* ``slice_expectation(v, S)`` - the mean output over the slice under
  the uniform, feature-independent product distribution;
* ``output_range()`` - the exact (min, max) output over the whole space;
* ``labelled_points()`` and ``relabel(mapping)`` - the discrete kinds
  only: every point with its output, and the model under an output
  relabeling;
* ``disagreements(v, dissimilar)`` - masks of weak contrastive
  explanations, every minimal one among them: a table's from its points
  by ``coalition_fold``, a tree's from its leaves, a box model's from the
  slices each cell holding v meets (``_pinned``);
* ``expected_table(v)`` - the expected-value game's coalition table at v:
  the discrete kinds' by ``coalition_fold``, a box model's from its
  integer rows in one pass and the same slices;
* ``reads_basis`` - does the sufficiency predicate read the contrastive
  basis rather than quantify over the slice?

Each kind derives them from one primitive: box models their columns of
cell bounds and affine coefficients, read through each cell's integer form
over its own denominator (``BoxPiecewiseModel._integers``), the discrete
kinds a reader from slots to outputs. A discrete space
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
from functools import cached_property, partial, reduce
from fractions import Fraction
from itertools import accumulate, chain, compress, product, repeat
from math import lcm, prod
from operator import add, floordiv, getitem, itemgetter, lt, mul, or_, sub

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

    def slots(self, v: Point = (), S: int = 0) -> Iterator[int]:
        """The slots of the points with x_S = v_S, in lexicographic order:
        the fixed features' offsets plus every combination of the free ones'."""
        if not S:  # the whole space: a range, cheaper than a product of sums
            _guard(self.size)
            return iter(range(self.size))
        return map(sum, _product([
            (self.indexes[j][v[j]] * stride,) if S >> j & 1
            else range(0, radix * stride, stride)
            for j, (radix, stride) in enumerate(zip(self.radices, self.strides))]))


# ---------------------------------------------------------------------------
# Model kinds
# ---------------------------------------------------------------------------

class _EnumerableModel(_Frozen):
    """Semantics shared by the discrete kinds, all read by slot of the
    space's numbering. Subclasses define ``_read`` (slot -> output),
    ``_values`` (every output object the model can produce, repeats
    allowed), ``_relabelled``, ``disagreements`` and ``reads_basis``."""

    __slots__ = ()

    def output(self, point: Point) -> Value:
        return self._read(self.space.slot(point))

    def slice_outputs(self, v: Point, S: int) -> Iterator[Value]:
        """The output at every point x of the slice x_S = v_S, lazily."""
        return map(self._read, self.space.slots(v, S))

    def slice_holds(self, v: Point, S: int, dissimilar: Callable[[Value], bool]) -> bool:
        """Does a point of the slice x_S = v_S have a ``dissimilar`` output? Stops at the first."""
        return any(map(dissimilar, self.slice_outputs(v, S)))

    def slice_expectation(self, v: Point, S: int) -> Fraction:
        # The outputs repeat a few shared objects, so each distinct object
        # is weighted by its count, told apart by identity, not by hash.
        outputs = list(self.slice_outputs(v, S))
        firsts = {id(y): y for y in outputs}
        total = sum(firsts[k] * n for k, n in Counter(map(id, outputs)).items())
        return Fraction(total, len(outputs))

    def output_range(self) -> tuple[Fraction, Fraction]:
        # Numeric outputs are ints or Fractions, which compare exactly, so
        # only the two extremes are converted.
        values = self._values()
        return Fraction(min(values)), Fraction(max(values))

    def labelled_points(self) -> Iterator[tuple[Point, Value]]:
        """Every point with its output, in slot order."""
        return zip(self.space.points(), map(self._read, self.space.slots()))

    def _column(self):
        """The output at every slot, in slot order."""
        return list(map(self._read, self.space.slots()))

    def expected_table(self, v: Point) -> tuple[list[int], int]:
        """The expected-value game at v, for every coalition.

        With L the least common denominator of the model's outputs, the sums
        f[S] of y * L over the slice x_S = v_S satisfy
        nu(S) = f[S] / (L * prod_{j not in S} |D_j|), which over the common
        denominator L * |space| has the numerator f[S] * prod_{j in S} |D_j|.
        coalition_fold sums the numerators' slot column, m whole-list passes."""
        outputs = {id(y): y for y in self._values()}  # the few output objects, int or Fraction
        scale = lcm(*{y.denominator for y in outputs.values()})
        column = self._column()
        if {*map(type, outputs.values())} != {int}:  # else each is its own numerator, L = 1
            numerator = {k: y.numerator * (scale // y.denominator) for k, y in outputs.items()}
            column = list(map(numerator.__getitem__, map(id, column)))
        sums = coalition_fold(column, self.space, v,  # a free feature: rows summed
                              lambda rows, k: list(reduce(partial(map, add), rows)))
        inside = [1]  # prod_{j in S} |D_j|, one feature at a time
        for radix in self.space.radices:
            inside += [n * radix for n in inside]
        return [f * n for f, n in zip(sums, inside)], scale * inside[-1]

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
    ``firsts`` each output object by its id, first appearances first."""

    __slots__ = ("space", "outputs", "value_kind", "firsts")
    _fields = ("space", "outputs", "value_kind")
    reads_basis = False  # a slice stops at its first dissimilar point, so it is quantified

    def __init__(self, space: FeatureSpace, outputs: tuple, value_kind: str = NUMERIC):
        if not space.all_discrete():
            raise ValidationError("tabular models need all-discrete domains")
        outputs = tuple(outputs)
        if len(outputs) != space.size:
            raise ValidationError(f"table lists {len(outputs)} outputs for {space.size} points")
        # The outputs repeat a few objects (the loader parses each distinct
        # token once), so they are told apart by identity before hashing;
        # the first appearances, in slot order, are checked for the others.
        firsts = dict(zip(map(id, outputs), outputs))
        if None in firsts.values():
            raise not_total(space, outputs)
        _check_values(firsts.values(), value_kind)
        if len(set(firsts.values())) < 2:
            raise ValidationError("model is constant; a non-constant prediction function is required")
        _set(self, "space", space)
        _set(self, "outputs", outputs)
        _set(self, "value_kind", value_kind)
        _set(self, "firsts", firsts)

    @property
    def _read(self):
        return self.outputs.__getitem__

    def _column(self):
        return list(self.outputs)

    def _values(self):
        return self.firsts.values()

    def disagreements(self, v: Point, dissimilar: Callable[[Value], bool]) -> Iterator[int]:
        """Each distinct disagreement mask with v (bit j: x_j != v_j) of the
        points whose output is ``dissimilar``, once: each output object is
        tested once, and the 0/1 column of verdicts folded over the
        agreement masks, the other rows ORed where feature j differs."""
        verdict = {k: dissimilar(y) for k, y in self.firsts.items()}
        hits = bytes(map(verdict.__getitem__, map(id, self.outputs)))
        present = coalition_fold(hits, self.space, v, _or_others)
        return compress(range((1 << self.space.m) - 1, -1, -1), present)  # S -> full ^ S

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
    reads_basis = True  # the leaves give the contrastive basis in one pass

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


class BoxPiecewiseModel(_Frozen):
    """Axis-aligned piecewise-affine regressor; cells partition the space.

    The cells are held as columns, one entry per cell: ``bounds`` holds 2m
    columns, the lower then the upper bounds on feature 1, then on feature
    2, and so on; ``affines`` holds m + 1, the intercepts a0 and then each
    feature's coefficients a_j, and a cell's output is a0 + sum_j a_j * x_j.

    Cell intervals are half-open [lo, hi) except that hi equal to the
    domain's upper endpoint is closed, which makes membership unambiguous
    and the partition check decidable. Both compare integers on a rank
    grid: each axis's sorted distinct ``cuts`` (cell bounds and domain
    endpoints), and each cell's bounds as their ranks, per axis and per
    cell in ``lows`` and ``highs``."""

    __slots__ = ("space", "bounds", "affines", "value_kind", "cuts", "lows", "highs", "_rows")
    _fields = ("space", "bounds", "affines", "value_kind")
    reads_basis = False  # the basis costs its cells per coalition, so slices are quantified

    def __init__(self, space: FeatureSpace, bounds: tuple[tuple, ...], affines: tuple[tuple, ...],
                 value_kind: str = NUMERIC):
        _check_box_kind(space, value_kind)
        m = space.m
        if len(bounds) != 2 * m or len(affines) != m + 1 or len({*map(len, bounds + affines)}) > 1:
            raise ValidationError(f"box model needs {2 * m} bound and {m + 1} affine columns "
                                  "of one length")
        if not affines[0]:
            raise ValidationError("box-piecewise model has no cells")
        _set(self, "space", space)
        _set(self, "bounds", bounds)
        _set(self, "affines", affines)
        _set(self, "value_kind", value_kind)
        _set(self, "_rows", {})  # cell -> its integer row, see _integers
        cuts, lows, highs = _box_ranks(space, bounds)
        _set(self, "cuts", cuts)
        _set(self, "lows", lows)
        _set(self, "highs", highs)
        witness = self._partition_witness()
        if witness is not None:
            owners = self._holders(witness, range(m))
            kind = "no cell" if not owners else f"cells {owners}"
            raise ValidationError(
                f"cells do not partition the space: point {witness} lies in {kind}")
        # Constant iff every coefficient is zero and all intercepts agree.
        intercepts, *coeffs = affines
        if not any(map(any, coeffs)) and intercepts.count(intercepts[0]) == len(intercepts):
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
            a, b = pair
            return tuple(midpoint(j, max(lo[a], lo[b]), min(hi[a], hi[b]))
                         for j, (lo, hi) in enumerate(zip(los, his)))
        if sum(map(prod, zip(*map(map, repeat(sub), his, los)))) == prod(slabs):
            return None
        # A gap: on each axis, fix the midpoint of the first slab whose cells
        # count its cross-section short. On the last axis no cell spans it.
        # Each cell adds its cross-section from its lower rank on and takes
        # it back from its upper one, so one running sum counts every slab.
        point, live = [], range(len(los[0]))
        for j in range(len(cuts)):
            full = prod(slabs[j + 1:])
            counted = [0] * len(cuts[j])
            for k in live:
                section = prod(hi[k] - lo[k] for lo, hi in zip(los[j + 1:], his[j + 1:]))
                counted[los[j][k]] += section
                counted[his[j][k]] -= section
            t = next(t for t, total in enumerate(accumulate(counted)) if total < full)
            point.append(midpoint(j, t, t + 1))
            live = [k for k in live if los[j][k] <= t < his[j][k]]
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
        axis = max(range(len(los)), key=lambda j: len(set(los[j])))
        others = [j for j in range(len(los)) if j != axis]
        if (bits := 2 * len(los[0]) * sum(len(self.cuts[j]) for j in others)) > POINT_GUARD << 8:
            raise SizeLimitError(f"partition check guarded at {POINT_GUARD << 8} bits, got {bits}")
        order = sorted(range(len(los[0])), key=los[axis].__getitem__)
        firsts = list(map(los[axis].__getitem__, order))
        started, ended = [], []
        for j in others:
            starts, ends = [0] * len(self.cuts[j]), [0] * len(self.cuts[j])
            lo, hi = los[j], his[j]
            for p, k in enumerate(order):
                starts[lo[k]] |= 1 << p
                ends[hi[k]] |= 1 << p
            started.append([0, *accumulate(starts, or_)])
            ended.append(list(accumulate(ends, or_)))
        for p, a in enumerate(order):
            # The later cells starting below hi_a: positions p + 1 .. c - 1, where c
            # counts the lower ranks below hi_a, a's own and those before it among them.
            meet = (1 << bisect_left(firsts, his[axis][a])) - (2 << p)
            for j, s, e in zip(others, started, ended):
                meet &= s[his[j][a]] ^ e[los[j][a]]  # ended[lo] lies within started[hi]
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
        held = range(len(self.affines[0]))
        for j in axes:
            t, lo, hi = self._slab(j, v[j]), self.lows[j], self.highs[j]
            held = [k for k in held if lo[k] <= t < hi[k]]
        return list(held)

    def _owner(self, point: Point) -> int:
        owners = self._holders(point, range(self.space.m))
        if len(owners) != 1:
            raise ValidationError(f"partition violated at {point}: {len(owners)} cells")
        return owners[0]

    def _integers(self, cells: Iterable[int]) -> list[tuple]:
        """The integer row of each of ``cells`` (indexes): the cell over E,
        the lcm of the denominators of its bounds, intercept and
        coefficients, as (E, a0*E, (a_j*E), the ends
        (min(a_j*lo_j, a_j*hi_j)*E^2) and (max(...)*E^2), the spans
        ((hi_j - lo_j)*E), and its extremes over the whole box over E^2).
        The rows not read before are built together, a column at a time,
        and kept: a run reads few of them, and validation none."""
        rows, cells = self._rows, list(cells)
        new = sorted(set(cells).difference(rows))  # in column order, so all of them are range(n)
        if new:
            # One flat list of the values, a column at a time: the intercepts,
            # the coefficients, then the lower and the upper bounds, by axis.
            m, n = self.space.m, len(new)
            columns = self.affines + self.bounds[::2] + self.bounds[1::2]
            if n < len(columns[0]):
                columns = [map(column.__getitem__, new) for column in columns]
            values = list(chain.from_iterable(columns))
            ids = list(map(id, values))  # a few shared objects, each read once
            ratios = {k: x.as_integer_ratio() for k, x in dict(zip(ids, values)).items()}
            num, den = ({k: r[i] for k, r in ratios.items()} for i in (0, 1))
            q = list(map(den.__getitem__, ids))
            scale = list(map(lcm, *(q[i:i + n] for i in range(0, len(q), n))))
            ints = list(map(mul, map(num.__getitem__, ids), map(floordiv, scale * (3 * m + 1), q)))
            a0, coeffs = ints[:n], ints[n:(m + 1) * n]
            lows, highs = ints[(m + 1) * n:(2 * m + 1) * n], ints[(2 * m + 1) * n:]
            at_lo, at_hi = list(map(mul, coeffs, lows)), list(map(mul, coeffs, highs))

            def by_cell(flat):  # m columns laid end to end, as each cell's m-tuple
                return zip(*(flat[i:i + n] for i in range(0, m * n, n)))

            low_ends = list(by_cell(list(map(min, at_lo, at_hi))))
            high_ends = list(by_cell(list(map(max, at_lo, at_hi))))
            centre = list(map(mul, a0, scale))
            rows.update(zip(new, zip(scale, a0, by_cell(coeffs), low_ends, high_ends,
                                     by_cell(list(map(sub, highs, lows))),
                                     map(add, centre, map(sum, low_ends)),
                                     map(add, centre, map(sum, high_ends)))))
        return list(map(rows.__getitem__, cells))

    # Every quantity below is read in integers: each cell over its own
    # denominator E (see _integers), the point v over d, the lcm of its
    # coordinates' denominators. An affine's extremes over a cell's closure
    # are reached coordinate-wise at the interval ends (it is separable),
    # so over E^2 * d they are (a0*d + sum_fixed a_j*v_j) * E plus d times
    # the free axes' low or high ends.

    def output(self, point: Point) -> Fraction:
        # The affine at the point, over the lcd of its terms times d.
        k = self._owner(point)
        (a0, *coeffs), scale = _over_lcd(column[k] for column in self.affines)
        numerators, d = _over_lcd(point)
        return Fraction(a0 * d + sum(map(mul, coeffs, numerators)), scale * d)

    def _extremes(self, v: Point, S: int) -> tuple[int, list[int], Iterator[tuple]]:
        """d, the free axes, and each cell meeting the slice x_S = v_S as
        its integer row with its closure extremes there over E^2 * d. The
        rows are built together; each cell's extremes, as it is read."""
        numerators, d = _over_lcd(v)
        axes = [j for j in range(self.space.m) if S >> j & 1]
        free = [j for j in range(self.space.m) if not S >> j & 1]

        def cells(rows):
            for row in rows:
                scale, a0, coeffs, lows, highs, *_ = row
                pinned = (a0 * d + sum(coeffs[j] * numerators[j] for j in axes)) * scale
                yield (row, pinned + d * sum(lows[j] for j in free),
                       pinned + d * sum(highs[j] for j in free))

        return d, free, cells(self._integers(self._holders(v, axes)))

    def slice_holds(self, v: Point, S: int, dissimilar) -> bool:
        """Does a cell pinned to x_S = v_S have a closure extreme of its affine
        outside ``dissimilar.band``, a :class:`~shapxp.similarity.Dissimilar`'s,
        read once per denominator E over E^2 * d? Values on open faces are
        approached by interior points, so the extremes decide the slice; the
        scan stops at the first cell that leaves the band."""
        d, _, cells = self._extremes(v, S)
        leaves = _leaves(dissimilar, d)
        return any(leaves(row[0], low, high) for row, low, high in cells)

    def _pinned(self, v: Point) -> Iterator[tuple[int, list]]:
        """Each cell holding v on some axis, as its denominator E and the
        slices x_S = v_S it meets, S within those axes: (S, free volume
        over E^free, low, high), the closure extremes over E^2 * d. The
        slices fixing features meet only these cells. Pinning axis j, one
        at a time, adds a_j*v_j*E^2*d to both extremes, takes its ends back
        and drops its span from the volume."""
        numerators, d = _over_lcd(v)
        held = {}  # cell -> the 0-based axes on which it holds v
        for j in range(self.space.m):
            for k in self._holders(v, [j]):
                held.setdefault(k, []).append(j)
        for axes, (scale, _, coeffs, lows, highs, spans, bottom, top) in zip(
                held.values(), self._integers(held)):
            slices = [(0, prod(spans), bottom * d, top * d)]
            for j in axes:
                pinned, bit, span = coeffs[j] * numerators[j] * scale, 1 << j, spans[j]
                to_lo, to_hi = pinned - d * lows[j], pinned - d * highs[j]
                slices += [(fixed | bit, volume // span, low + to_lo, high + to_hi)
                           for fixed, volume, low, high in slices]
            yield scale, slices

    def disagreements(self, v: Point, dissimilar: Callable[[Value], bool]) -> Iterator[int]:
        """Every weak contrastive explanation C (bit j: feature j+1): the
        slice fixing the other features holds a closure extreme outside the
        band of ``dissimilar``, a :class:`~shapxp.similarity.Dissimilar`,
        read by ``dissimilar.band`` once per cell denominator E over
        E^2 * d. A slice that fixes features meets only the cells holding v
        on their axes, and every cell meets the one that fixes none, which
        is a disagreement as soon as one cell's range leaves the band. The
        guard charges every cell per C (see :func:`guard_slices`)."""
        m = self.space.m
        guard_slices(self, 1 << m, "coalition table")
        d = _over_lcd(v)[1]
        leaves = _leaves(dissimilar, d)
        full, found = (1 << m) - 1, set()
        for scale, slices in self._pinned(v):
            found.update(full ^ fixed for fixed, _, low, high in slices if leaves(scale, low, high))
        if full not in found and any(leaves(scale, bottom * d, top * d) for scale, *_, bottom, top
                                     in self._integers(range(len(self.affines[0])))):
            found.add(full)
        return iter(sorted(found))

    def slice_expectation(self, v: Point, S: int) -> Fraction:
        # An affine's mean over the free sub-box is its value at the centre,
        # the mean of its two extremes; over E^(free+2) * 2d each cell adds
        # its free volume times their sum.
        d, free, cells = self._extremes(v, S)
        sums = {}
        for (scale, *_, spans, _, _), low, high in cells:
            sums[scale] = sums.get(scale, 0) + prod(spans[j] for j in free) * (low + high)
        return self._mean(sums, free, d)

    def _mean(self, sums: dict[int, int], free: list[int], d: int) -> Fraction:
        """The mean over the free axes of a slice whose cells added, per
        denominator E, ``sums`` over E^(free+2) * 2d: one Fraction per E,
        added pairwise, since a running sum's denominator grows at every
        step, then divided by the free volume."""
        terms = [Fraction(n, scale ** (len(free) + 2) * 2 * d) for scale, n in sums.items()]
        while len(terms) > 1:
            terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
        return terms[0] / prod(self.space.features[j].domain.width for j in free)

    def expected_table(self, v: Point) -> tuple[list[int], int]:
        """The expected-value game at v, for every coalition, each value as
        ``slice_expectation`` gives it. The slice fixing nothing meets every
        cell: each adds its volume times the sum of its extremes over the
        whole box, in one pass over the rows. Every other slice meets only
        the cells of ``_pinned``, each adding its free volume times the sum
        of its extremes there. The guard charges every cell per coalition,
        as the slices' scan did."""
        m = self.space.m
        guard_slices(self, 1 << m, "coalition table")
        d = _over_lcd(v)[1]
        rows = self._integers(range(len(self.affines[0])))
        sums = [{} for _ in range(1 << m)]  # per coalition: E -> sum over E^(free+2) * 2d
        volumes = map(prod, map(itemgetter(5), rows))
        extremes = map(add, map(itemgetter(6), rows), map(itemgetter(7), rows))
        for scale, term in zip(map(itemgetter(0), rows), map(mul, volumes, extremes)):
            sums[0][scale] = sums[0].get(scale, 0) + term * d
        for scale, slices in self._pinned(v):
            for fixed, volume, low, high in slices[1:]:
                sums[fixed][scale] = sums[fixed].get(scale, 0) + volume * (low + high)
        return _over_lcd(self._mean(sums[s], [j for j in range(m) if not s >> j & 1], d)
                         for s in range(1 << m))

    def output_range(self) -> tuple[Fraction, Fraction]:
        # Each cell's extremes are over its E^2: compared by cross-multiplying.
        lo = hi = None
        for scale, *_, bottom, top in self._integers(range(len(self.affines[0]))):
            s = scale * scale
            if lo is None or bottom * lo[1] < lo[0] * s:
                lo = bottom, s
            if hi is None or top * hi[1] > hi[0] * s:
                hi = top, s
        return Fraction(*lo), Fraction(*hi)


def _leaves(dissimilar, d: int) -> Callable[[int, int, int], bool]:
    """The test of whether a cell's closure extremes low and high, over
    E^2 * d for its denominator E, leave the band of ``dissimilar``, a
    :class:`~shapxp.similarity.Dissimilar`: each E's band is read on its
    first use and kept."""
    bands = {}

    def leaves(scale, low, high):
        if scale not in bands:
            bands[scale] = dissimilar.band(scale * scale * d)
        return low < bands[scale][0] or high > bands[scale][1]

    return leaves


def _check_box_kind(space: FeatureSpace, value_kind: str) -> None:
    if not space.all_interval():
        raise ValidationError("box-piecewise models need all-interval domains")
    if value_kind != NUMERIC:
        raise ValidationError("box-piecewise models are numeric-valued")


def _box_ranks(space: FeatureSpace, bounds: tuple[tuple, ...]) -> tuple[tuple, tuple, tuple]:
    """Each axis's cuts, and the ranks of the cells' lower and upper bounds
    among them; a cell whose interval is empty or leaves its domain on
    some axis raises, the first such cell by index."""
    cuts, ends, lows, highs = [], [], [], []
    for f, lo, hi in zip(space.features, bounds[::2], bounds[1::2]):
        axis, ranks = _ranked([f.domain.lo, f.domain.hi, *lo, *hi])
        cuts.append(axis)
        ends.append(ranks[:2])  # the domain's endpoints
        lows.append(ranks[2:2 + len(lo)])
        highs.append(ranks[2 + len(lo):])
    # Each axis at once; the loop only names the first bad cell.
    if not all(min(lo, default=a) >= a and max(hi, default=b) <= b and all(map(lt, lo, hi))
               for lo, hi, (a, b) in zip(lows, highs, ends)):
        for k in range(len(lows[0])):
            for j, (lo, hi, (a, b)) in enumerate(zip(lows, highs, ends)):
                if not a <= lo[k] < hi[k] <= b:
                    raise ValidationError(f"cell {k}: interval [{bounds[2 * j][k]}, "
                                          f"{bounds[2 * j + 1][k]}) invalid for feature {j + 1}")
    return tuple(cuts), tuple(lows), tuple(highs)


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


def coalition_fold(column, space: FeatureSpace, v: Point, merge: Callable) -> list:
    """Entry S for every coalition mask S (bit j: feature j + 1), folded
    from ``column`` (a list or bytes, one entry per slot) as in Yates's
    algorithm. One whole-list pass per feature, the last (fastest) first,
    turns its rows ``column[k::r_j]`` into ``merge(rows, k)`` followed by
    the row at v_j's position k: the halves where bit j is clear and set.
    An entry's index is then its mask with the m bits reversed."""
    for radix, index, x in zip(reversed(space.radices), reversed(space.indexes), reversed(v)):
        k = index[x]
        rows = [column[i::radix] for i in range(radix)]
        column = merge(rows, k) + rows[k]
    order = [0]  # index -> mask, its m bits reversed, by doubling
    for _ in range(space.m):
        order = [r << 1 for r in order]
        order += [r | 1 for r in order]
    return list(map(column.__getitem__, order))


def _or_others(rows: list[bytes], k: int) -> bytes:  # zeros when there is no other row
    others = map(int.from_bytes, rows[:k] + rows[k + 1:], repeat("big"))
    return reduce(or_, others, 0).to_bytes(len(rows[k]), "big")


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
    constraint, ids = constraint or {}, space.ids  # the ids built once per call
    for fid, value in constraint.items():
        if fid not in ids:
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
        work, unit = coalitions * len(model.affines[0]) * space.m, "affine terms"
    if work > POINT_GUARD:
        raise SizeLimitError(f"{run} guarded at {POINT_GUARD} {unit}, got {work}")


def conditional_expectation(model: Model, instance: Instance, fixed: Iterable[int]) -> Fraction:
    """E[pi(x) | x_S = v_S] under the uniform product distribution on the
    unconstrained features. Exact rational arithmetic throughout."""
    if model.value_kind != NUMERIC:
        raise NumericOutputError("conditional expectation needs numeric model outputs")
    fixed, v, space = frozenset(fixed), instance.point, model.space
    ids = space.ids  # built once per call
    for fid in fixed:
        if fid not in ids:
            raise DomainError(f"unknown feature id {fid}")
        if v[fid - 1] not in space.domain(fid):
            raise DomainError(f"value {v[fid - 1]!r} outside domain of feature {fid}")
    return model.slice_expectation(v, sum(1 << fid - 1 for fid in fixed))


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
