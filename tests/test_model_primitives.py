"""Each model kind reads one primitive: box cells their integer form over
their own denominators, trees the routes built by one validating walk,
discrete models their outputs by slot of the space's numbering. The
methods derived from them must agree exactly with the code they replaced,
kept below as reference copies: for box models, the ``Fraction``
arithmetic of ``_affine_extremes`` and the methods built on it."""

import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, product
from math import lcm
from operator import add, or_

import pytest

from shapxp import (
    DiscreteDomain,
    ExplanationProblem,
    Feature,
    FeatureSpace,
    SimilarityConfig,
    TabularModel,
    TreeLeaf,
    TreeModel,
    TreeNode,
    ValidationError,
    enumerate_points,
    is_waxp,
    make_instance,
    predict,
    relevant_features,
    tabulate,
)
from shapxp.explanations import _ids, _minimal
from shapxp.games import Game, expected_game, shapley_exact, shapley_via_permutations
from shapxp.models import _ranked, guard_slices, labelled_points
from shapxp.similarity import Dissimilar
from boxmodels import (
    QUARTERS,
    prime_stacked_model,
    random_grid_model,
    random_kd_model,
    slice_cells,
)
from conftest import cpu_limit
from randmodels import VALUE_POOL, random_table, random_tree_model
from test_models import bool_space


# Reference semantics: verbatim copies of BoxPiecewiseModel.output,
# BoxPiecewiseModel.slice_expectation and TreeModel.output as they were
# written before each kind read one primitive, with ``self`` the model, its
# ``slice_cells`` method read from boxmodels and its cell at a point read by
# the owner's index.
def reference_box_output(self, point):
    cell = self.cells[self._owner(point)]
    total = Fraction(cell.intercept)
    for a, x in zip(cell.coeffs, point):
        if a:
            total += a * Fraction(x)
    return total


def reference_box_slice_expectation(self, v, fixed):
    total = Fraction(0)
    for cell in slice_cells(self, v, fixed):
        # The integral of the affine over the free sub-box is its volume
        # times the value at the sub-box midpoint.
        vol = Fraction(1)
        value = Fraction(cell.intercept)
        for j, (a, (lo, hi)) in enumerate(zip(cell.coeffs, cell.box)):
            if j + 1 in fixed:
                value += a * Fraction(v[j])
            else:
                vol *= hi - lo
                value += a * (lo + hi) / 2
        total += vol * value
    width = Fraction(1)
    for f in self.space.features:
        if f.id not in fixed:
            width *= f.domain.width
    return total / width


# The Fraction reference of every box method that reads extremes: the
# primitive they all derived from before the cells were read as integers,
# verbatim, and BoxPiecewiseModel's slice_outputs, disagreements and
# output_range as they were written on it.
def _affine_extremes(cell, v, fixed):
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


def reference_box_slice_outputs(self, v, fixed):
    for cell in slice_cells(self, v, fixed):
        yield from _affine_extremes(cell, v, fixed)


def reference_box_disagreements(self, v, dissimilar, slice_outputs=reference_box_slice_outputs):
    guard_slices(self, 1 << self.space.m, "coalition table")
    for free in range(1 << self.space.m):
        fixed = frozenset(i for i in self.space.ids if not free >> i - 1 & 1)
        if any(map(dissimilar, slice_outputs(self, v, fixed))):
            yield free


def reference_box_output_range(self):
    lows, highs = zip(*(_affine_extremes(cell, (), ()) for cell in self.cells))
    return min(lows), max(highs)


def reference_tree_output(self, point):
    """Walk the tree from the root to the leaf that ``point`` reaches."""
    node = self.nodes[self.root]
    while isinstance(node, TreeNode):
        x = point[node.feature - 1]
        for values, child in node.edges:
            if x in values:
                node = self.nodes[child]
                break
        else:
            raise ValidationError(
                f"no edge for value {x!r} at a node testing feature {node.feature}")
    return node.value


# Cell bounds of the random grid models lie on the quarter lattice of
# [-1, 1]; instances hit those bounds, the domain ends, points between
# them and floats, which both versions read exactly.
COORDINATES = [Fraction(k, 4) for k in range(-4, 5)] + [Fraction(1, 3), Fraction(-5, 7),
                                                        0.5, -0.25]


def subsets(ids):
    return chain.from_iterable(combinations(ids, k) for k in range(len(ids) + 1))


@pytest.mark.parametrize("seed", range(12))
def test_box_output_and_expectation_equal_the_reference(seed):
    rng = random.Random(seed)
    model = random_grid_model(rng, m=2 + seed % 2)
    for _ in range(6):
        v = tuple(rng.choice(COORDINATES) for _ in model.space.ids)
        assert predict(model, v) == reference_box_output(model, v)
        for fixed in map(frozenset, subsets(model.space.ids)):
            assert model.slice_expectation(v, fixed) == \
                reference_box_slice_expectation(model, v, fixed)


DELTAS = [None, Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]


@pytest.mark.parametrize("seed", range(7))
def test_box_extremes_and_disagreements_equal_the_fraction_reference(seed):
    """At every quarter-lattice point, which holds every cut line and the
    domain top, on every coalition, under class equality (None) and each
    threshold; the last seed is a kd layout in three dimensions."""
    rng = random.Random(2026 + seed)
    if seed == 6:
        model = random_kd_model(rng, 3, 6)
    elif seed % 2:
        model = random_kd_model(rng, 2, rng.randint(2, 9))
    else:
        model = random_grid_model(rng, 2)
    assert model.output_range() == reference_box_output_range(model)
    for v in product(QUARTERS, repeat=model.space.m):
        assert model.output(v) == reference_box_output(model, v)
        extremes = {}  # the reference's, per coalition, read by every delta
        for fixed in map(frozenset, subsets(model.space.ids)):
            extremes[fixed] = list(reference_box_slice_outputs(model, v, fixed))
            assert list(model.slice_outputs(v, fixed)) == extremes[fixed]
            assert model.slice_expectation(v, fixed) == \
                reference_box_slice_expectation(model, v, fixed)
        for delta in DELTAS:
            dissimilar = Dissimilar(model.output(v), delta)
            expected = reference_box_disagreements(model, v, dissimilar,
                                                   lambda _, __, fixed: extremes[fixed])
            assert list(model.disagreements(v, dissimilar)) == list(expected), (v, delta)


def test_the_prime_layout_answers_as_the_fraction_reference_within_a_second():
    """1,024 stacked cells whose cuts carry 1,023 distinct odd-prime
    denominators: each cell is read over its own denominator, so neither
    the expected game nor the basis pays for one common denominator."""
    model = prime_stacked_model(random.Random(11))
    v = (Fraction(1, 3), Fraction(-2, 7))
    instance = make_instance(model, v)
    exact = ExplanationProblem(model, instance, SimilarityConfig.class_equality())
    banded = ExplanationProblem(model, instance, SimilarityConfig.threshold(Fraction(1, 2)))
    with cpu_limit(1):
        scores = shapley_exact(expected_game(exact)).scores
        relevant = relevant_features(banded)
    reference = Game(model.space.ids, lambda s: reference_box_slice_expectation(model, v, s))
    assert scores == shapley_exact(reference).scores
    masks = reference_box_disagreements(model, v, Dissimilar(instance.prediction, Fraction(1, 2)))
    basis = _minimal(masks, 2)
    assert banded.contrastive_basis == basis
    assert relevant == _ids(reduce(or_, basis, 0))
    assert model.output_range() == reference_box_output_range(model)


@pytest.mark.parametrize("n_cells", [1024, 6, 7])
def test_stacked_slice_expectations_equal_the_left_to_right_sum(n_cells):
    """The per-denominator terms are added pairwise: on the prime layout,
    and on short ones whose levels leave an odd term over, the all-free and
    one-fixed slices equal the reference's running sum over the cells."""
    model = prime_stacked_model(random.Random(11), n_cells)
    v = (Fraction(1, 3), Fraction(-2, 7))
    for fixed in (frozenset(), frozenset({1}), frozenset({2})):
        assert model.slice_expectation(v, fixed) == \
            reference_box_slice_expectation(model, v, fixed)


def reference_ranked(bounds):
    """The sorted distinct values of ``bounds`` as Fractions, and each
    bound's position among them."""
    cuts = sorted(set(map(Fraction, bounds)))
    position = {x: r for r, x in enumerate(cuts)}
    return tuple(cuts), [position[Fraction(x)] for x in bounds]


@pytest.mark.parametrize("seed", range(40))
def test_ranked_bounds_equal_the_sorted_fraction_reference(seed):
    """Ints, negatives and large denominators, each value repeated by
    shared objects and held again by distinct equal objects (an int and a
    Fraction of it, two Fractions); from seed 20 on, a few hundred coprime
    denominators push the common denominator past 1024 bits."""
    rng = random.Random(seed)
    top = 10 ** 30 if seed % 2 else 8
    pool = [rng.randint(-5, 5) for _ in range(4)]
    pool += [Fraction(rng.randint(-top, top), rng.randint(1, top)) for _ in range(8)]
    if seed >= 20:
        pool += [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randrange(10 ** 5, 10 ** 6))
                 for _ in range(300)]
    pool += [Fraction(x.numerator, x.denominator) for x in rng.sample(pool, 4)]
    pool += [int(x) for x in pool if Fraction(x).denominator == 1]
    bounds = [rng.choice(pool) for _ in range(3 * len(pool))]
    cuts, ranks = _ranked(bounds)
    assert (cuts, ranks) == reference_ranked(bounds)


@pytest.mark.parametrize("seed", range(30))
def test_tree_output_equals_the_reference_at_every_point(seed):
    rng = random.Random(seed)
    model = random_tree_model(rng, rng.randint(1, 5), categorical=seed % 3 == 0)
    for point in enumerate_points(model):
        assert model.output(point) == reference_tree_output(model, point)


def chain_tree(m, last_child):
    """Node i tests feature i; value 0 goes to a leaf, value 1 to node
    i + 1, and node m's value 1 to ``last_child``."""
    space = FeatureSpace(tuple(
        Feature(i, f"x{i}", DiscreteDomain((0, 1))) for i in range(1, m + 1)))
    nodes = {("leaf", i): TreeLeaf(i % 2) for i in range(1, m + 1)}
    nodes.update({i: TreeNode(i, (((0,), ("leaf", i)), ((1,), i + 1 if i < m else last_child)))
                  for i in range(1, m + 1)})
    return space, nodes


def test_a_deep_chain_validates_without_recursion():
    space, nodes = chain_tree(1500, ("leaf", 1))
    with pytest.raises(ValidationError, match="reached twice"):
        TreeModel(space, nodes, 1)
    nodes[("end",)] = TreeLeaf(2)
    nodes[1500] = TreeNode(1500, (((0,), ("leaf", 1500)), ((1,), ("end",))))
    model = TreeModel(space, nodes, 1)
    assert predict(model, (1,) * 1500) == 2
    assert predict(model, (1,) * 7 + (0,) * 1493) == 0


@pytest.mark.parametrize("edges", [
    (((0,), "a"), ((1,), "a")),      # one child under both edges
    (((0,), "root"), ((1,), "a")),  # a cycle through the root
], ids=["shared-child", "cycle"])
def test_a_node_reached_twice_is_rejected(edges):
    space = FeatureSpace((Feature(1, "x1", DiscreteDomain((0, 1))),
                          Feature(2, "x2", DiscreteDomain((0, 1)))))
    nodes = {"root": TreeNode(1, edges),
             "a": TreeNode(2, (((0,), "zero"), ((1,), "one"))),
             "zero": TreeLeaf(0), "one": TreeLeaf(1)}
    with pytest.raises(ValidationError, match="reached twice"):
        TreeModel(space, nodes, "root")


# Reference enumeration: the discrete kinds' methods as they were written
# before every enumeration read outputs by slot, point by point through
# ``output``, with a tree's output walking routes keyed by domain value.
def reference_value_routes(self):
    """TreeModel.routes as {node id: {domain value: child id}}."""
    return {nid: {x: child for values, child in node.edges for x in values}
            for nid, node in self.nodes.items() if isinstance(node, TreeNode)}


def reference_route_output(self, point, routes):
    node_id, nodes = self.root, self.nodes
    while node_id in routes:
        node_id = routes[node_id][point[nodes[node_id].feature - 1]]
    return nodes[node_id].value


def reference_output(self):
    """The model's output as a function of a point: the route walk for a
    tree, a {point: output} lookup for a table."""
    if isinstance(self, TreeModel):
        routes = reference_value_routes(self)
        return lambda point: reference_route_output(self, point, routes)
    return dict(zip(self.space.points(), self.outputs)).__getitem__


def reference_slice_outputs(self, output, v, fixed):
    """The output at every point x of the slice x_S = v_S, point by point."""
    return map(output, self.space.points({j: v[j - 1] for j in fixed}))


def reference_labelled_points(self, output):
    return ((pt, output(pt)) for pt in self.space.points())


def reference_masked_outputs(self, output, v):
    """(agreement mask with v, output) of every point of the space."""
    axes = [[1 << j if x == v[j] else 0 for x in f.domain.values]
            for j, f in enumerate(self.space.features)]
    return zip(map(sum, product(*axes)), (y for _, y in reference_labelled_points(self, output)))


def reference_expected_table(masked, space):
    """The expected-value game's coalition table as it was built before the
    coalition fold: each point's output numerator over L binned under its
    agreement mask, then every bin's supersets added in, bit by bit, by
    strided slices or by blocks, whichever are fewer."""
    scale = lcm(*{y.denominator for _, y in masked})
    sums = [0] * (1 << space.m)
    for mask, y in masked:
        sums[mask] += y.numerator * (scale // y.denominator)
    for k in range(space.m):
        half, step = 1 << k, 2 << k
        if half < len(sums) // step:
            for r in range(half):
                sums[r::step] = map(add, sums[r::step], sums[r + half::step])
        else:
            for lo in range(0, len(sums), step):
                sums[lo:lo + half] = map(add, sums[lo:lo + half], sums[lo + half:lo + step])
    inside = [1]
    for feature in space.features:
        size = len(feature.domain.values)
        inside += [n * size for n in inside]
    return [f * n for f, n in zip(sums, inside)], scale * inside[-1]


def assert_folds_equal_the_reference(model, output, v):
    """The expected table and a table's disagreement masks, each folded
    from the slot column, against the reference built from every point's
    agreement mask: the masks once each, under class equality and, for
    numeric outputs, under a threshold."""
    masked = list(reference_masked_outputs(model, output, v))
    instance = make_instance(model, v)
    numeric = model.value_kind == "numeric"
    if numeric:
        assert model.expected_table(v) == reference_expected_table(masked, model.space)
    if isinstance(model, TabularModel):
        full = (1 << model.space.m) - 1
        for delta in (None, Fraction(1, 2))[:1 + numeric]:
            dissimilar = Dissimilar(instance.prediction, delta)
            masks = list(model.disagreements(v, dissimilar))
            assert len(masks) == len(set(masks))
            assert set(masks) == {full ^ mask for mask, y in masked if dissimilar(y)}


def fresh(point):
    """An equal point whose rational coordinates are other objects."""
    return tuple(Fraction(x.numerator, x.denominator) if isinstance(x, Fraction) else x
                 for x in point)


def assert_enumerations_equal_the_reference(model, rng):
    output = reference_output(model)
    labelled = list(reference_labelled_points(model, output))
    assert list(labelled_points(model)) == labelled
    for point, y in labelled:
        assert model.output(point) == model.output(fresh(point)) == predict(model, point) == y
    for _ in range(3):
        v = fresh(rng.choice(labelled)[0])
        assert_folds_equal_the_reference(model, output, v)
        for fixed in map(frozenset, subsets(model.space.ids)):
            outputs = list(reference_slice_outputs(model, output, v, fixed))
            assert list(model.slice_outputs(v, fixed)) == outputs
            if model.value_kind == "numeric":
                assert model.slice_expectation(v, fixed) == sum(outputs, Fraction(0)) / len(outputs)


@pytest.mark.parametrize("seed", range(40))
def test_tree_enumerations_equal_the_reference(seed):
    rng = random.Random(seed)
    tree = random_tree_model(rng, rng.randint(1, 5), max_domain=4,
                             categorical=seed % 2 == 1, mixed=seed % 4 < 2)
    assert_enumerations_equal_the_reference(tree, rng)
    table = dict(labelled_points(tree))
    twin = TabularModel(tree.space, [table[p] for p in tree.space.points()], tree.value_kind)
    assert tabulate(tree) == twin


@pytest.mark.parametrize("seed", range(30))
def test_table_enumerations_equal_the_reference(seed):
    rng = random.Random(seed)
    space, outputs, kind = random_table(rng, categorical=seed % 2 == 1)
    assert_enumerations_equal_the_reference(TabularModel(space, outputs, kind), rng)


INTS_AND_FRACTIONS = [y.numerator if y.denominator == 1 else y for y in VALUE_POOL]


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("kind", ["table", "tree"])
def test_the_coalition_folds_equal_the_reference(kind, m):
    """Domains of one to four values in one space, int and Fraction outputs,
    and an instance at every position of each domain."""
    rng = random.Random(f"{kind}{m}")
    if kind == "table":
        space, outputs, _ = random_table(rng, max_domain=4, min_domain=1, m=m,
                                         pool=INTS_AND_FRACTIONS)
        model = TabularModel(space, outputs)
    else:
        model = random_tree_model(rng, m, max_depth=m, max_domain=4, mixed=True,
                                  min_domain=1, pool=INTS_AND_FRACTIONS)
    output = reference_output(model)
    domains = [f.domain.values for f in model.space.features]
    for k in range(max(map(len, domains))):
        v = tuple(values[k % len(values)] for values in domains)
        assert_folds_equal_the_reference(model, output, v)
        if m <= 6:
            game = expected_game(ExplanationProblem(model, make_instance(model, v),
                                                    SimilarityConfig.class_equality()))
            assert shapley_exact(game) == shapley_via_permutations(game)


def assert_lazy(problem):
    """The empty set is no WAXp of ``problem``, decided within 1 s of CPU
    and 1 MiB of traced memory."""
    tracemalloc.start()
    try:
        with cpu_limit(1):
            assert is_waxp(problem, []) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_a_wide_trees_basis_is_built_lazily():
    """The basis of a tree over 2^20 coalitions comes from its two leaves,
    with no table of coalitions."""
    m = 20
    nodes = {"root": TreeNode(m, (((0,), "zero"), ((1,), "one"))),
             "zero": TreeLeaf(0), "one": TreeLeaf(1)}
    model = TreeModel(bool_space(m), nodes, "root")
    assert_lazy(ExplanationProblem(model, make_instance(model, (0,) * m),
                                   SimilarityConfig.class_equality()))


def test_a_slice_of_a_wide_table_is_read_lazily():
    """A 2^20-point slice whose second point already differs is answered
    from its first two slots, with no list of slots or points."""
    m = 20
    model = TabularModel(bool_space(m), (0, 1) + (0,) * ((1 << m) - 2))
    assert_lazy(ExplanationProblem(model, make_instance(model, (0,) * m),
                                   SimilarityConfig.class_equality()))
