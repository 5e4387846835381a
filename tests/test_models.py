import random
from fractions import Fraction as F

import numpy as np
import pytest

from shapxp import (
    DiscreteDomain,
    DomainError,
    Feature,
    FeatureSpace,
    Instance,
    IntervalDomain,
    NumericOutputError,
    TabularModel,
    TreeLeaf,
    TreeModel,
    TreeNode,
    UnsupportedOperationError,
    ValidationError,
    conditional_expectation,
    enumerate_points,
    make_instance,
    output_range,
    predict,
    tabulate,
)
from shapxp.models import labelled_points
from boxmodels import Cell, box_model, cells_of
from randmodels import (mask_of, random_instance, random_tabular_problem, random_tree_model,
                        subsets)


def bool_space(m):
    return FeatureSpace(tuple(
        Feature(i + 1, f"f{i + 1}", DiscreteDomain((0, 1))) for i in range(m)))


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_empty_discrete_domain_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteDomain(())

    def test_duplicate_domain_values_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteDomain((0, 1, 0))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValidationError):
            IntervalDomain(F(1), F(1))

    def test_feature_ids_must_be_dense(self):
        with pytest.raises(ValidationError):
            FeatureSpace((Feature(1, "a", DiscreteDomain((0, 1))),
                          Feature(3, "b", DiscreteDomain((0, 1)))))

    def test_table_must_be_total(self):
        space = bool_space(2)
        table = {(0, 0): 0, (0, 1): 1, (1, 0): 0}  # (1,1) missing
        with pytest.raises(ValidationError, match="total"):
            TabularModel(space, [table.get(p) for p in space.points()])

    def test_constant_table_rejected(self):
        space = bool_space(1)
        with pytest.raises(ValidationError, match="constant"):
            TabularModel(space, [1, 1])

    def test_tree_repeats_feature_on_path(self):
        space = bool_space(1)
        nodes = {
            0: TreeNode(1, (((0,), 1), ((1,), 2))),
            1: TreeLeaf(0),
            2: TreeNode(1, (((0,), 3), ((1,), 4))),
            3: TreeLeaf(1),
            4: TreeLeaf(2),
        }
        with pytest.raises(ValidationError, match="twice"):
            TreeModel(space, nodes, 0)

    def test_tree_edges_must_cover_domain(self):
        space = FeatureSpace((Feature(1, "a", DiscreteDomain((0, 1, 2))),))
        nodes = {0: TreeNode(1, (((0,), 1), ((1,), 2))), 1: TreeLeaf(0), 2: TreeLeaf(1)}
        with pytest.raises(ValidationError, match="cover"):
            TreeModel(space, nodes, 0)

    @pytest.mark.parametrize("edges,message", [
        # A value outside the domain is named first, even after a repeat.
        ((((0, 0), 1), ((1, 5), 2)), "edge value 5 outside domain of feature 1"),
        ((((0,), 1), ((1, [2]), 2)), "edge value [2] outside domain of feature 1"),
        ((((0,), 1), ((0, 1), 2)), "node 0: a domain value maps to two children"),
        ((((0,), 1), ((1,), 2), ((F(1),), 1)), "node 0: a domain value maps to two children"),
        ((((0,), 1), ((1,), 2)), "node 0: edges do not cover the domain"),
    ], ids=["outside", "unhashable", "two-children", "two-spellings", "uncovered"])
    def test_tree_edge_errors_keep_their_order(self, edges, message):
        space = FeatureSpace((Feature(1, "a", DiscreteDomain((0, 1, 2))),))
        nodes = {0: TreeNode(1, edges), 1: TreeLeaf(0), 2: TreeLeaf(1)}
        with pytest.raises(ValidationError) as info:
            TreeModel(space, nodes, 0)
        assert str(info.value) == message

    def test_tree_edge_routing_no_value_is_rejected(self):
        # Leaf 3 would count as reached, yet no point reaches it.
        space = bool_space(1)
        nodes = {0: TreeNode(1, (((0,), 1), ((1,), 2), ((), 3))),
                 1: TreeLeaf(0), 2: TreeLeaf(0), 3: TreeLeaf(1)}
        with pytest.raises(ValidationError, match="node 0: an edge routes no domain value"):
            TreeModel(space, nodes, 0)

    def test_tree_unreachable_node(self):
        space = bool_space(1)
        nodes = {0: TreeNode(1, (((0,), 1), ((1,), 2))),
                 1: TreeLeaf(0), 2: TreeLeaf(1), 9: TreeLeaf(5)}
        with pytest.raises(ValidationError, match="unreachable"):
            TreeModel(space, nodes, 0)

    def test_unreachable_ids_of_mixed_types_are_named(self):
        space = bool_space(1)
        nodes = {0: TreeNode(1, (((0,), 1), ((1,), 2))),
                 1: TreeLeaf(0), 2: TreeLeaf(1), None: TreeLeaf(5), "x": TreeLeaf(6)}
        with pytest.raises(ValidationError, match=r"unreachable tree nodes: \[None, 'x'\]"):
            TreeModel(space, nodes, 0)

    def test_missing_points_of_mixed_values_are_named(self):
        space = FeatureSpace((Feature(1, "a", DiscreteDomain((0, 1, "c"))),))
        with pytest.raises(ValidationError, match=r"missing 2 points, e\.g\. \(1,\)"):
            TabularModel(space, [1, None, None])

    def test_box_cells_with_gap_rejected(self):
        space = FeatureSpace((Feature(1, "x", IntervalDomain(F(0), F(2))),))
        cells = (Cell(((F(0), F(1)),), F(0), (F(1),)),
                 Cell(((F(3, 2), F(2)),), F(5), (F(0),)))
        with pytest.raises(ValidationError, match="partition"):
            box_model(space, cells)

    def test_box_cells_with_overlap_rejected(self):
        space = FeatureSpace((Feature(1, "x", IntervalDomain(F(0), F(2))),))
        cells = (Cell(((F(0), F(3, 2)),), F(0), (F(1),)),
                 Cell(((F(1), F(2)),), F(5), (F(0),)))
        with pytest.raises(ValidationError, match="partition"):
            box_model(space, cells)

    def test_box_cell_outside_domain_rejected(self):
        space = FeatureSpace((Feature(1, "x", IntervalDomain(F(0), F(2))),))
        cells = (Cell(((F(0), F(3)),), F(0), (F(1),)),)
        with pytest.raises(ValidationError, match="invalid"):
            box_model(space, cells)

    def test_constant_box_model_rejected(self):
        space = FeatureSpace((Feature(1, "x", IntervalDomain(F(0), F(2))),))
        cells = (Cell(((F(0), F(1)),), F(3), (F(0),)),
                 Cell(((F(1), F(2)),), F(3), (F(0),)))
        with pytest.raises(ValidationError, match="constant"):
            box_model(space, cells)

    def test_instance_shape(self, cls3_model):
        inst = make_instance(cls3_model, (1, 1, 2))
        assert inst == Instance((1, 1, 2), F(1))


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

class TestPredict:
    def test_piecewise_values(self, pw2_model):
        assert predict(pw2_model, (F(1), F(1))) == 1
        assert predict(pw2_model, (F(0), F(0))) == -2
        assert predict(pw2_model, (F(0), F(1))) == 2

    def test_piecewise_boundaries(self, pw2_model):
        # 1/2 belongs to the upper branch, not the half-open lower cells
        assert predict(pw2_model, (F(1, 2), F(0))) == F(1, 2)
        assert predict(pw2_model, (F(0), F(1, 2))) == F(3, 2)
        # the domain's closed top edge
        assert predict(pw2_model, (F(3, 2), F(3, 2))) == F(3, 2)

    def test_outside_domain_raises(self, cls3_model, pw2_model):
        with pytest.raises(DomainError):
            predict(cls3_model, (2, 0, 0))
        with pytest.raises(DomainError):
            predict(pw2_model, (F(2), F(0)))
        with pytest.raises(DomainError):
            predict(cls3_model, (1, 1))

    def test_tree_agrees_with_table_everywhere(self, cls3_model, cls3_tree_model):
        for point in enumerate_points(cls3_model):
            assert predict(cls3_tree_model, point) == predict(cls3_model, point)

    def test_tabulate_tree(self, reg2_model, reg2_tree_model):
        expanded = tabulate(reg2_tree_model)
        assert dict(labelled_points(expanded)) == dict(labelled_points(reg2_model))


# ---------------------------------------------------------------------------
# enumerate_points
# ---------------------------------------------------------------------------

class TestEnumerate:
    def test_partial_constraint(self, reg2_model):
        assert list(enumerate_points(reg2_model, {1: 1})) == [(1, 0), (1, 1)]

    def test_full_constraint_single_point(self, cls3_model):
        pts = list(enumerate_points(cls3_model, {1: 1, 2: 0, 3: 2}))
        assert pts == [(1, 0, 2)]

    def test_unconstrained_counts_and_order(self, cls3_model):
        pts = list(enumerate_points(cls3_model))
        assert len(pts) == 12
        assert pts == sorted(pts)  # lexicographic in the declared domain order

    def test_interval_model_unsupported(self, pw2_model):
        with pytest.raises(UnsupportedOperationError):
            enumerate_points(pw2_model)

    def test_constraint_value_must_be_in_domain(self, reg2_model):
        with pytest.raises(DomainError):
            list(enumerate_points(reg2_model, {1: 7}))


# ---------------------------------------------------------------------------
# conditional_expectation
# ---------------------------------------------------------------------------

class TestConditionalExpectation:
    @pytest.mark.parametrize("fixed,expected", [
        ((), F(1, 2)),
        ((1,), F(1)),
        ((2,), F(3, 2)),
        ((1, 2), F(1)),
    ])
    def test_piecewise_exact_values(self, pw2_model, pw2_problem, fixed, expected):
        assert conditional_expectation(pw2_model, pw2_problem.instance, fixed) == expected

    def test_all_features_fixed_equals_prediction(self, cls3_problem, reg2_problem,
                                                  pw2_problem):
        for problem in (cls3_problem, reg2_problem, pw2_problem):
            value = conditional_expectation(problem.model, problem.instance,
                                            problem.feature_ids)
            assert value == problem.instance.prediction

    def test_discrete_matches_enumeration_mean(self):
        rng = random.Random(20250810)
        for _ in range(20):
            problem = random_tabular_problem(rng)
            ids = problem.feature_ids
            fixed = tuple(i for i in ids if rng.random() < 0.5)
            constraint = {i: problem.instance.point[i - 1] for i in fixed}
            points = list(enumerate_points(problem.model, constraint))
            mean = sum(F(predict(problem.model, p)) for p in points) / len(points)
            assert conditional_expectation(problem.model, problem.instance,
                                           fixed) == mean

    def test_categorical_outputs_rejected(self):
        space = bool_space(1)
        model = TabularModel(space, ["no", "yes"], "categorical")
        inst = make_instance(model, (1,))
        with pytest.raises(NumericOutputError):
            conditional_expectation(model, inst, ())

    @pytest.mark.parametrize("fixed", [(), (1,), (2,)])
    def test_piecewise_matches_monte_carlo(self, pw2_model, pw2_problem, fixed):
        # Independent quadrature oracle: uniform sampling over the free
        # axes, evaluating the cells' affines directly with numpy.
        n = 1_000_000
        rng = np.random.default_rng(42 + len(fixed))
        coords = []
        for j, feature in enumerate(pw2_model.space.features):
            if feature.id in fixed:
                coords.append(np.full(n, float(pw2_problem.instance.point[j])))
            else:
                lo, hi = float(feature.domain.lo), float(feature.domain.hi)
                coords.append(rng.uniform(lo, hi, size=n))
        values = np.empty(n)
        owned = np.zeros(n, dtype=bool)
        top = [float(f.domain.hi) for f in pw2_model.space.features]
        for cell in cells_of(pw2_model):
            mask = np.ones(n, dtype=bool)
            for j, (lo, hi) in enumerate(cell.box):
                lo_f, hi_f = float(lo), float(hi)
                upper = coords[j] <= hi_f if hi_f == top[j] else coords[j] < hi_f
                mask &= (coords[j] >= lo_f) & upper
            cell_vals = float(cell.intercept) + sum(
                float(a) * coords[j] for j, a in enumerate(cell.coeffs) if a)
            values = np.where(mask, cell_vals, values)
            owned |= mask
        assert owned.all()
        estimate = values.mean()
        stderr = values.std(ddof=1) / np.sqrt(n)
        exact = float(conditional_expectation(pw2_model, pw2_problem.instance, fixed))
        assert abs(estimate - exact) <= 3 * max(stderr, 1e-12)


    def test_random_grid_models_match_midpoint_quadrature(self):
        # Aligned midpoint quadrature is exact for piecewise-affine
        # integrands, giving an independent exact-rational oracle.
        from boxmodels import exact_expectation_by_midpoints, random_grid_model
        rng = random.Random(135)
        for _ in range(10):
            model = random_grid_model(rng, m=2)
            v = (F(rng.randrange(-4, 5), 4), F(rng.randrange(-4, 5), 4))
            inst = make_instance(model, v)
            for fixed in [(), (1,), (2,), (1, 2)]:
                assert conditional_expectation(model, inst, fixed) == \
                    exact_expectation_by_midpoints(model, v, fixed)


    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    def test_discrete_slices_equal_the_fraction_sum(self, kind):
        # Outputs weighted by identity count must give the plain Fraction
        # sum: on tables and trees, with int, Fraction and mixed outputs,
        # equal values held by distinct objects included.
        images = {"int": lambda y: int(6 * y), "fraction": lambda y: F(y),
                  "mixed": lambda y: int(y) if y.denominator == 1 else F(y)}[kind]
        rng = random.Random(f"slices:{kind}")
        for _ in range(12):
            problem = random_tabular_problem(rng, max_m=5)
            tree = random_tree_model(rng, rng.randint(1, 6), max_domain=3)
            for model in (problem.model, tree):
                values = set(model._values())
                model = model.relabel({y: images(y) for y in values})
                table = TabularModel(model.space, [images(y) for y in
                                                   map(model.output, model.space.points())])
                for twin in (model, table):
                    v = random_instance(rng, twin).point
                    for fixed in subsets(twin.space.ids):
                        outputs = list(twin.slice_outputs(v, mask_of(fixed)))
                        mean = twin.slice_expectation(v, mask_of(fixed))
                        assert type(mean) is F
                        assert mean == sum(outputs, F(0)) / len(outputs)


class TestOutputRange:
    def test_piecewise_range(self, pw2_model):
        assert output_range(pw2_model) == (F(-5, 2), F(5, 2))

    def test_table_range(self, cls3_model):
        assert output_range(cls3_model) == (F(0), F(7))

    def test_tree_range(self, reg2_tree_model):
        assert output_range(reg2_tree_model) == (F(-1, 2), F(3, 2))
