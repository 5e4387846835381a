"""Each model kind reads one primitive: box cells their affine extremes,
trees the routes built by one validating walk, discrete spaces one point
product. The methods derived from them must agree exactly with the
per-method code they replaced, kept below as reference copies."""

import random
from fractions import Fraction
from itertools import chain, combinations

import pytest

from shapxp import (
    DiscreteDomain,
    Feature,
    FeatureSpace,
    TreeLeaf,
    TreeModel,
    TreeNode,
    ValidationError,
    enumerate_points,
    predict,
)
from boxmodels import random_grid_model
from randmodels import random_tree_model


# Reference semantics: verbatim copies of BoxPiecewiseModel.output,
# BoxPiecewiseModel.slice_expectation and TreeModel.output as they were
# written before each kind read one primitive, with ``self`` the model.
def reference_box_output(self, point):
    cell = self.cell_at(point)
    total = Fraction(cell.intercept)
    for a, x in zip(cell.coeffs, point):
        if a:
            total += a * Fraction(x)
    return total


def reference_box_slice_expectation(self, v, fixed):
    total = Fraction(0)
    for cell in self.slice_cells(v, fixed):
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
