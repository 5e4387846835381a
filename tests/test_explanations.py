import inspect
import json
import random
import warnings
from fractions import Fraction as F
from itertools import combinations, product
from types import SimpleNamespace

import pytest

import shapxp
from shapxp import (
    BoxPiecewiseModel,
    ConstantOnUniverseWarning,
    DiscreteDomain,
    DomainError,
    ExplanationProblem,
    Feature,
    FeatureSpace,
    IntervalDomain,
    PreconditionError,
    Sample,
    SimilarityConfig,
    SizeLimitError,
    TabularModel,
    TreeLeaf,
    TreeModel,
    TreeNode,
    ValidationError,
    axps_from_cxps,
    enumerate_axps,
    enumerate_cxps,
    extract_axp,
    extract_cxp,
    full_space_sample,
    is_waxp,
    is_wcxp,
    make_instance,
    minimal_hitting_sets,
    relevant_features,
    similar,
    similar_value,
    tabulate,
)
from shapxp.explanations import (
    _ids,
    _in_order,
    _minimal,
    agnostic_support,
    sufficiency_table,
)
from shapxp.modelio import model_from_dict
from shapxp.models import Instance, conditional_expectation, labelled_points
from shapxp.similarity import Dissimilar
from boxmodels import Cell, box_model, random_grid_model, random_kd_model
from conftest import cpu_limit, rebuilt
from test_io_cli import chain_tree_doc
from test_model_primitives import DELTAS, pinned_extremes, reference_box_slice_outputs
from test_samples import per_row_slice_outputs
from randmodels import (
    brute_force_axps,
    brute_force_cxps,
    brute_force_hitting_sets,
    mask_of,
    random_instance,
    random_sample,
    random_table,
    random_tabular_problem,
    random_tree_model,
    subsets,
    with_similarity,
)


def assert_enumeration_matches_oracle(problem):
    """enumerate_cxps equals the per-set lattice oracle, in (size, ids)
    order, and warns exactly when the family is empty."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found = enumerate_cxps(problem)
    oracle = sorted((tuple(sorted(c)) for c in brute_force_cxps(problem)),
                    key=lambda c: (len(c), c))
    assert found == tuple(oracle)
    warned = any(issubclass(w.category, ConstantOnUniverseWarning) for w in caught)
    assert warned == (not found)


def wide_tree_model(m):
    """One split on feature 1 over m ternary features."""
    space = FeatureSpace(tuple(
        Feature(i + 1, f"x{i + 1}", DiscreteDomain((0, 1, 2))) for i in range(m)))
    nodes = {0: TreeNode(1, (((0,), 1), ((1, 2), 2))), 1: TreeLeaf(0), 2: TreeLeaf(1)}
    return TreeModel(space, nodes, 0, "numeric")


def wide_box_model(m):
    """Two cells split on feature 1 over m unit intervals, x1 on one."""
    space = FeatureSpace(tuple(
        Feature(i + 1, f"x{i + 1}", IntervalDomain(F(0), F(1))) for i in range(m)))
    rest = ((F(0), F(1)),) * (m - 1)
    zero = (F(0),) * m
    cells = (Cell(((F(0), F(1, 2)),) + rest, F(0), zero),
             Cell(((F(1, 2), F(1)),) + rest, F(0), (F(1),) + zero[1:]))
    return box_model(space, cells)


def parity_problem(m=3):
    """Flipping any single feature changes the class, so every singleton
    is a minimal contrastive explanation."""
    space = FeatureSpace(tuple(
        Feature(i + 1, f"b{i + 1}", DiscreteDomain((0, 1))) for i in range(m)))
    table = {pt: sum(pt) % 2 for pt in product((0, 1), repeat=m)}
    model = TabularModel(space, [table[p] for p in space.points()], "numeric")
    return ExplanationProblem(model, make_instance(model, (0,) * m),
                              SimilarityConfig.class_equality())


# ---------------------------------------------------------------------------
# Weak predicates
# ---------------------------------------------------------------------------

class TestWeakPredicates:
    def test_waxp_single_feature_suffices(self, cls3_problem, reg2_problem):
        assert is_waxp(cls3_problem, (1,))
        assert is_waxp(reg2_problem, (1,))

    def test_waxp_full_set_always_holds(self, cls3_problem, reg2_problem, pw2_problem):
        for problem in (cls3_problem, reg2_problem, pw2_problem):
            assert is_waxp(problem, problem.feature_ids)

    def test_waxp_frozen_counterexample(self, cls3_problem):
        # Fixing features 2 and 3 leaves the point (0,1,2) reachable,
        # which predicts 0 instead of 1 (checked by full enumeration).
        assert not is_waxp(cls3_problem, (2, 3))
        assert not similar(cls3_problem, (0, 1, 2))

    def test_wcxp_examples(self, cls3_problem, reg2_problem):
        assert is_wcxp(cls3_problem, (1,))
        assert not is_wcxp(cls3_problem, ())
        assert not is_wcxp(reg2_problem, (2,))

    def test_box_universe_predicates(self, pw2_problem):
        assert is_waxp(pw2_problem, (1,))
        assert not is_waxp(pw2_problem, (2,))
        assert not is_waxp(pw2_problem, ())
        assert is_wcxp(pw2_problem, (1,))
        assert not is_wcxp(pw2_problem, (2,))

    def test_box_threshold_wide_enough_to_ignore_a_cell(self, pw2_model):
        # delta = 3/2 admits the whole x2+1 branch (outputs up to 5/2 are
        # within 3/2 of 1) but not the x2-2 branch.
        problem = ExplanationProblem(pw2_model, make_instance(pw2_model, (F(1), F(1))),
                                     SimilarityConfig.threshold(F(3, 2)))
        assert is_waxp(problem, (2,))  # fixing x2=1 rules out the x2-2 branch
        assert not is_waxp(problem, ())

    @pytest.mark.parametrize("kind", ["table", "tree", "box", "sample"])
    def test_the_public_predicates_read_feature_ids_in_any_form(self, kind, request,
                                                                 reg2_tree_model):
        """is_waxp, is_wcxp, agnostic_support (on a sample) and
        conditional_expectation (on the model's space) give one answer for
        the ids of each coalition as a list, a tuple, a set, a frozenset, a
        generator or a list that names each twice, and refuse id 0 in every
        form with one error text."""
        if kind == "tree":
            problem = ExplanationProblem(reg2_tree_model, make_instance(reg2_tree_model, (1, 1)),
                                         SimilarityConfig.class_equality())
        else:
            problem = request.getfixturevalue(
                {"table": "cls3_problem", "box": "pw2_problem", "sample": "reg2_sample_problem"}[kind])
        unknown = ValidationError, r"unknown feature ids \[0\]"
        checks = [(is_waxp, unknown), (is_wcxp, unknown)]
        if problem.universe is None:
            checks.append((lambda p, ids: conditional_expectation(p.model, p.instance, ids),
                           (DomainError, "unknown feature id 0")))
        else:
            checks.append((agnostic_support, unknown))

        def forms(ids):
            return [list(ids), tuple(ids), set(ids), frozenset(ids), (i for i in ids), [*ids, *ids]]

        for check, (error, text) in checks:
            for s in subsets(problem.feature_ids):
                assert [check(problem, ids) for ids in forms(s)] == [check(problem, s)] * 6
            for ids in forms((0,)):
                with pytest.raises(error, match=rf"^{text}$"):
                    check(problem, ids)

    def test_monotone_in_the_feature_set(self):
        rng = random.Random(99)
        for _ in range(30):
            problem = random_tabular_problem(rng, max_m=4)
            ids = list(problem.feature_ids)
            small = [i for i in ids if rng.random() < 0.5]
            extra = [i for i in ids if i not in small and rng.random() < 0.7]
            large = small + extra
            if is_waxp(problem, small):
                assert is_waxp(problem, large)
            if is_wcxp(problem, small):
                assert is_wcxp(problem, large)

    def test_waxp_iff_superset_of_an_axp(self):
        rng = random.Random(4242)
        for _ in range(15):
            problem = random_tabular_problem(rng, max_m=4)
            axps = brute_force_axps(problem)
            for s in subsets(problem.feature_ids):
                expected = any(a <= set(s) for a in axps)
                assert is_waxp(problem, s) == expected


# ---------------------------------------------------------------------------
# Minimal explanations
# ---------------------------------------------------------------------------

def shrink_by_ids(problem, seed, holds, kind):
    """The extractions' deletion loop over id sets, one public predicate
    call a step: the reference for their walk over one mask."""
    seed_set = tuple(sorted(set(problem.feature_ids if seed is None else seed)))
    if not holds(problem, seed_set):
        raise PreconditionError(f"seed {seed_set} is not a weak {kind} explanation")
    current = set(seed_set)
    for i in seed_set:
        if holds(problem, current - {i}):
            current.remove(i)
    return tuple(sorted(current))


class TestExtraction:
    def test_extraction_equals_the_deletion_loop_over_id_sets(self, cls3_problem, pw2_problem,
                                                             reg2_sample_problem):
        rng = random.Random(50)
        tree = random_tree_model(rng, 4)
        box = random_grid_model(rng)
        problems = [cls3_problem, random_tabular_problem(rng, max_m=4), pw2_problem,
                    ExplanationProblem(tree, random_instance(rng, tree),
                                       SimilarityConfig.class_equality()),
                    ExplanationProblem(box, make_instance(box, (F(1, 3), F(-1, 5))),
                                       SimilarityConfig.threshold(F(1, 2))),
                    reg2_sample_problem]
        for problem in problems:
            # Each seed form, made afresh for each run: a generator is read once.
            seeds = [lambda: None]
            for s in subsets(problem.feature_ids):
                seeds += [lambda s=s: list(s), lambda s=s: tuple(reversed(s)),
                          lambda s=s: (i for i in s), lambda s=s: s + s[:1] + s]
            for extract, holds, kind in ((extract_axp, is_waxp, "abductive"),
                                         (extract_cxp, is_wcxp, "contrastive")):
                for seed in seeds:
                    outcomes = []
                    for run in (extract, lambda p, seed: shrink_by_ids(p, seed, holds, kind)):
                        try:
                            outcomes.append(run(problem, seed()))
                        except PreconditionError as error:
                            outcomes.append(str(error))
                    assert outcomes[0] == outcomes[1], (problem, seed())

    def test_unknown_ids_are_refused_before_the_seed_is_checked(self, cls3_problem):
        with pytest.raises(PreconditionError,
                           match=r"^seed \(2, 3\) is not a weak abductive explanation$"):
            extract_axp(cls3_problem, (3, 2, 3))
        for extract in (extract_axp, extract_cxp):
            for seed in ((0,), (0, 2, 3), [2, 0]):
                with pytest.raises(ValidationError, match=r"^unknown feature ids \[0\]$"):
                    extract(cls3_problem, seed)

    def test_axp_from_full_seed(self, cls3_problem):
        assert extract_axp(cls3_problem) == (1,)

    def test_axp_idempotent_on_minimal_seed(self, cls3_problem):
        assert extract_axp(cls3_problem, (1,)) == (1,)

    def test_axp_rejects_non_sufficient_seed(self, cls3_problem):
        with pytest.raises(PreconditionError):
            extract_axp(cls3_problem, (2, 3))

    def test_cxp_from_seed(self, reg2_problem):
        assert extract_cxp(reg2_problem, (1, 2)) == (1,)
        assert extract_cxp(reg2_problem, (1,)) == (1,)

    def test_cxp_rejects_bad_seed(self, reg2_problem):
        with pytest.raises(PreconditionError):
            extract_cxp(reg2_problem, (2,))

    def test_extraction_outputs_are_minimal(self):
        rng = random.Random(515)
        for _ in range(20):
            problem = random_tabular_problem(rng, max_m=4)
            axp = extract_axp(problem)
            assert is_waxp(problem, axp)
            for i in axp:
                assert not is_waxp(problem, tuple(j for j in axp if j != i))
            cxp = extract_cxp(problem)
            assert is_wcxp(problem, cxp)
            for i in cxp:
                assert not is_wcxp(problem, tuple(j for j in cxp if j != i))


class TestEnumeration:
    def test_running_examples(self, cls3_problem, reg2_problem):
        assert enumerate_cxps(cls3_problem) == ((1,),)
        assert enumerate_cxps(reg2_problem) == ((1,),)
        assert enumerate_axps(cls3_problem) == ((1,),)
        assert enumerate_axps(reg2_problem) == ((1,),)

    def test_parity_model_has_all_singletons(self):
        problem = parity_problem(3)
        assert enumerate_cxps(problem) == ((1,), (2,), (3,))
        assert relevant_features(problem) == (1, 2, 3)

    def test_constant_universe_warns_and_returns_empty(self, cls3_problem):
        rows = ((1, 0, 0), (1, 1, 2))  # every row predicts 1
        problem = rebuilt(cls3_problem, universe=Sample(rows, (F(1), F(1))))
        with pytest.warns(ConstantOnUniverseWarning):
            assert enumerate_cxps(problem) == ()

    def test_with_no_cxp_the_empty_set_is_the_one_axp(self, pw2_problem, cls3_problem):
        # Nothing lies 100 away from pw2's output, and every sample row predicts 1:
        # every set is sufficient, as extraction finds, and duality has no family.
        problems = [rebuilt(pw2_problem, similarity=SimilarityConfig.threshold(F(100))),
                    rebuilt(cls3_problem, universe=Sample(((1, 0, 0), (1, 1, 2)), (F(1), F(1))))]
        for problem in problems:
            with pytest.warns(ConstantOnUniverseWarning):
                assert enumerate_axps(problem) == ((),)
            assert extract_axp(problem) == ()

    def test_matches_brute_force(self):
        rng = random.Random(962)
        for _ in range(25):
            assert_enumeration_matches_oracle(random_tabular_problem(rng, max_m=4))
        for _ in range(15):
            problem = random_tabular_problem(rng, max_m=4)
            delta = rng.choice((F(0), F(1, 3), F(1, 2), F(2)))
            assert_enumeration_matches_oracle(
                with_similarity(problem, SimilarityConfig.threshold(delta)))
        for categorical in (False, True):
            for _ in range(15):
                model = random_tree_model(rng, rng.randint(1, 5), categorical=categorical)
                problem = ExplanationProblem(model, random_instance(rng, model),
                                             SimilarityConfig.class_equality())
                assert_enumeration_matches_oracle(problem)
                if not categorical:
                    assert_enumeration_matches_oracle(
                        with_similarity(problem, SimilarityConfig.threshold(F(1, 2))))
        for _ in range(20):
            problem = random_tabular_problem(rng, max_m=4)
            universe = random_sample(rng, problem.model)
            for similarity in (SimilarityConfig.class_equality(),
                               SimilarityConfig.threshold(F(1, 2))):
                assert_enumeration_matches_oracle(
                    rebuilt(problem, similarity=similarity, universe=universe))
        for _ in range(10):
            model = random_grid_model(rng, m=2)
            v = (F(rng.randrange(-4, 5), 4), F(rng.randrange(-4, 5), 4))
            delta = F(rng.randrange(0, 9), 8)
            assert_enumeration_matches_oracle(ExplanationProblem(
                model, make_instance(model, v), SimilarityConfig.threshold(delta)))

    def test_inconsistent_sample_row_frees_single_features(self, cls3_problem):
        # A row equal to the instance but labelled otherwise makes even the
        # full feature set insufficient; the minimal non-empty freed sets
        # are then the singletons.
        rows = ((0, 0, 0), (1, 1, 2))
        problem = rebuilt(cls3_problem, universe=Sample(rows, (F(0), F(7))))
        assert enumerate_cxps(problem) == ((1,), (2,), (3,))

    def test_guarded_past_24_features(self):
        # A box model reads its basis off the 2^m sufficiency table.
        model = wide_box_model(25)
        problem = ExplanationProblem(model, make_instance(model, (F(0),) * 25),
                                     SimilarityConfig.threshold(0))
        for enumerate_ in (enumerate_cxps, relevant_features):
            with pytest.raises(SizeLimitError):
                enumerate_(problem)

    def test_a_wide_tree_is_explained_from_its_basis(self):
        # 3^25 points, but one walk over three nodes gives the basis {{1}}.
        model = wide_tree_model(25)
        problem = ExplanationProblem(model, make_instance(model, (0,) * 25),
                                     SimilarityConfig.class_equality())
        with cpu_limit(1):
            assert enumerate_cxps(problem) == ((1,),)
            assert enumerate_axps(problem) == ((1,),)
            assert relevant_features(problem) == (1,)
            assert extract_axp(problem) == extract_cxp(problem) == (1,)


def slice_quantifier(problem, features):
    """is_waxp by its definition: every output of the slice x_S = v_S over
    the problem's universe is similar. A sample's slice is read by its
    per-row form, which does not change with ``Sample.slice_outputs``, and
    a box model's by the Fraction reference of its closure extremes."""
    v, fixed = problem.instance.point, frozenset(features)
    if problem.universe is not None:
        outputs = per_row_slice_outputs(problem.universe, v, fixed)
    elif isinstance(problem.model, BoxPiecewiseModel):
        outputs = reference_box_slice_outputs(problem.model, v, fixed)
    else:
        outputs = problem.model.slice_outputs(v, mask_of(fixed))
    return all(similar_value(problem, y) for y in outputs)


def thirty_rows(rng, model):
    points = list(labelled_points(model))
    rows = [rng.choice(points) for _ in range(30)]
    return Sample(tuple(p for p, _ in rows), tuple(y for _, y in rows))


def basis_problems(rng):
    """Random trees with multi-value edges and their tabulated twins, random
    tables, and a 30-row sample of each, under class equality, threshold
    similarity and categorical outputs; then random grid and kd box models
    under delta 0, 1/4 and 1."""
    for _ in range(40):
        categorical = rng.random() < 0.3
        tree = random_tree_model(rng, rng.randint(1, 6), max_domain=4, categorical=categorical,
                                 mixed=rng.random() < 0.3)
        if rng.random() < 0.5:
            space, outputs, kind = random_table(rng, max_m=4, categorical=categorical)
            table = TabularModel(space, outputs, kind)
        else:
            table = tabulate(tree)
        for model in (tree, table):
            instance = random_instance(rng, model)
            similarities = [SimilarityConfig.class_equality()]
            if not categorical:
                similarities.append(SimilarityConfig.threshold(rng.choice((F(1, 3), F(1), F(2)))))
            for similarity in similarities:
                problem = ExplanationProblem(model, instance, similarity)
                yield problem
                yield rebuilt(problem, universe=thirty_rows(rng, model))
    eighths = [F(k, 8) for k in range(-8, 9)]
    for _ in range(12):
        m = rng.randint(1, 3)
        for model in (random_grid_model(rng, m), random_kd_model(rng, m, rng.randint(2, 8))):
            instance = make_instance(model, [rng.choice(eighths) for _ in range(m)])
            for delta in (0, F(1, 4), 1):
                yield ExplanationProblem(model, instance, SimilarityConfig.threshold(delta))


def pairwise_minimal(masks):
    """The masks that contain no other, each compared with every other,
    in (size, ids) order."""
    masks = set(masks)
    return tuple(sorted((b for b in masks if not any(a != b and a & b == a for a in masks)),
                        key=lambda b: (b.bit_count(), _ids(b))))


def seeded_family(rng, m, n):
    """n masks over m features of about m/2 features each, with repeats
    and a superset of some."""
    masks = [sum(1 << j for j in rng.sample(range(m), rng.randint(m // 2, m // 2 + 1)))
             for _ in range(n)]
    masks += rng.choices(masks, k=n // 8)
    return masks + [mask | 1 << rng.randrange(m) for mask in rng.choices(masks, k=n // 8)]


def one_witness_family(rng, m):
    """Every set of k = m // 2 of m features but some, every set of more
    than k + 1, and for each feature j one set M of k + 1 holding j whose
    only subset of size k in the family is M - {j}, as far as the later
    such sets leave it: a minimality test that skips feature j keeps M."""
    k = m // 2
    family = {mask for mask in range(1 << m) if mask.bit_count() in (k, *range(k + 2, m + 1))}
    for j in range(m):
        mask = sum(1 << i for i in rng.sample([i for i in range(m) if i != j], k)) | 1 << j
        family -= {mask ^ 1 << i for i in range(m) if mask >> i & 1 and i != j}
        family |= {mask, mask ^ 1 << j}
    return sorted(family)


def edge_value_disagreements(tree, v, dissimilar):
    """TreeModel.disagreements as a walk that tests v_j against each edge's
    values: bit j is set below every edge of feature j + 1 that excludes v_j."""
    masks, stack = [], [(tree.root, 0)]
    while stack:
        node_id, mask = stack.pop()
        node = tree.nodes[node_id]
        if isinstance(node, TreeLeaf):
            masks += [mask] if dissimilar(node.value) else []
            continue
        j = node.feature - 1
        stack.extend((child, mask if v[j] in values else mask | 1 << j)
                     for values, child in node.edges)
    return masks


def with_string_ids(tree):
    """The same tree with each node id n renamed "n<n>"."""
    name = {nid: f"n{nid}" for nid in tree.nodes}
    nodes = {name[nid]: node if isinstance(node, TreeLeaf) else TreeNode(
        node.feature, tuple((values, name[child]) for values, child in node.edges))
        for nid, node in tree.nodes.items()}
    return TreeModel(tree.space, nodes, name[tree.root], tree.value_kind)


class TestContrastiveBasis:
    def test_the_order_is_size_then_ids(self):
        rng = random.Random(2000)
        for _ in range(2000):
            m = rng.randint(1, 22)
            family = [rng.getrandbits(m) for _ in range(rng.randint(0, 40))] + [0] * (m % 2)
            assert _in_order(family) == tuple(sorted(family,
                                                     key=lambda b: (b.bit_count(), _ids(b))))

    def test_samples_and_trees_read_the_basis_and_the_other_scopes_quantify(self):
        kinds = set()
        for problem in basis_problems(random.Random(46)):
            walks = problem.universe is not None or isinstance(problem.model, TreeModel)
            assert problem.scope.reads_basis is walks
            kinds.add(type(problem.scope))
        assert kinds == {TabularModel, TreeModel, BoxPiecewiseModel, Sample}

    def test_a_trees_routes_give_the_edge_values_masks(self):
        rng = random.Random(1733)
        wide_edges = 0
        for _ in range(60):
            tree = with_string_ids(random_tree_model(rng, rng.randint(1, 6), max_domain=4,
                                                     mixed=True))
            wide_edges += any(len(values) > 1 for node in tree.nodes.values()
                              if isinstance(node, TreeNode) for values, _ in node.edges)
            for _ in range(3):
                instance = random_instance(rng, tree)
                for similarity in (SimilarityConfig.class_equality(),
                                   SimilarityConfig.threshold(1)):
                    dissimilar = ExplanationProblem(tree, instance, similarity).dissimilar
                    assert sorted(tree.disagreements(instance.point, dissimilar)) == \
                        sorted(edge_value_disagreements(tree, instance.point, dissimilar))
        assert wide_edges > 20

    def test_equals_the_lattice_oracle_and_the_table(self):
        rng = random.Random(1414)
        for problem in basis_problems(rng):
            basis = problem.contrastive_basis
            assert set(map(frozenset, map(_ids, basis))) == brute_force_cxps(problem)
            assert basis == tuple(sorted(basis, key=lambda b: (b.bit_count(), _ids(b))))
            masks = problem.scope.disagreements(problem.instance.point, problem.dissimilar)
            assert pairwise_minimal(masks) == basis
            if problem.model.space.m <= 6:
                table = sufficiency_table(problem)
                for s in subsets(problem.feature_ids):
                    mask = sum(1 << i - 1 for i in s)
                    assert is_waxp(problem, s) == slice_quantifier(problem, s) == table[mask]
            if problem.universe is None and isinstance(problem.model, BoxPiecewiseModel):
                model, v = problem.model, problem.instance.point
                for s in map(frozenset, subsets(problem.feature_ids)):
                    extremes = list(reference_box_slice_outputs(model, v, s))
                    assert pinned_extremes(model, v, s) == extremes
                    for delta in DELTAS:
                        dissimilar = Dissimilar(problem.instance.prediction, delta)
                        assert model.slice_holds(v, mask_of(s), dissimilar) == \
                            any(map(dissimilar, extremes)), (s, delta)

    def test_a_dense_antichain_stays_bounded(self):
        # "At least 8 of 16 ones" at the all-zero point: the basis is every
        # set of 8 features, 12,870 masks, which compared pairwise would
        # take about 83 million comparisons.
        space = FeatureSpace(tuple(Feature(j, f"x{j}", DiscreteDomain((0, 1)))
                                   for j in range(1, 17)))
        points = tuple(product((0, 1), repeat=16))
        outputs = tuple(int(sum(p) >= 8) for p in points)
        model = TabularModel(space, outputs)
        eights = [mask for mask in range(1 << 16) if mask.bit_count() == 8]
        for universe in (None, Sample(points, outputs)):
            problem = ExplanationProblem(model, Instance(points[0], 0),
                                         SimilarityConfig.class_equality(), universe)
            with cpu_limit(2):
                basis = problem.contrastive_basis
            assert sorted(basis) == eights

    @pytest.mark.parametrize("agnostic", [False, True], ids=["model", "sample"])
    def test_the_basis_is_built_once_per_problem(self, cls3_problem, monkeypatch, agnostic):
        universe = full_space_sample(cls3_problem.model) if agnostic else None
        problem = rebuilt(cls3_problem, universe=universe)
        scope = type(problem.scope)
        disagreements = scope.disagreements
        calls = []

        def counted(self, v, dissimilar):
            calls.append(v)
            return disagreements(self, v, dissimilar)

        monkeypatch.setattr(scope, "disagreements", counted)
        basis = problem.contrastive_basis
        assert problem.contrastive_basis is basis
        assert enumerate_cxps(problem) == ((1,),) and is_waxp(problem, (1,))
        assert len(calls) == 1
        assert rebuilt(problem).contrastive_basis == basis
        assert len(calls) == 2

    def test_a_tree_and_its_table_share_a_basis(self):
        rng = random.Random(1732)
        for _ in range(30):
            tree = random_tree_model(rng, rng.randint(1, 6), max_domain=4)
            instance = random_instance(rng, tree)
            for similarity in (SimilarityConfig.class_equality(), SimilarityConfig.threshold(1)):
                problem = ExplanationProblem(tree, instance, similarity)
                twin = rebuilt(problem, model=tabulate(tree))
                assert problem.contrastive_basis == twin.contrastive_basis

    def test_the_instance_labelled_otherwise_gives_the_empty_mask(self, cls3_problem):
        # nu is 0 everywhere: no fixed set is sufficient, and every
        # singleton is reported as a contrastive explanation.
        problem = rebuilt(cls3_problem, universe=Sample(((1, 1, 2),), (F(0),)))
        assert problem.contrastive_basis == (0,)
        assert sufficiency_table(problem) == [0] * 8
        assert brute_force_cxps(problem) == {frozenset()}
        assert not is_waxp(problem, problem.feature_ids)
        assert enumerate_cxps(problem) == ((1,), (2,), (3,))
        assert relevant_features(problem) == (1, 2, 3)
        assert enumerate_axps(problem) == ((1, 2, 3),)

    def test_a_constant_universe_has_an_empty_basis(self, cls3_problem):
        problem = rebuilt(cls3_problem, universe=Sample(((1, 0, 0), (0, 1, 1)), (F(1), F(1))))
        assert problem.contrastive_basis == ()
        assert sufficiency_table(problem) == [1] * 8
        assert is_waxp(problem, ())
        for query in (enumerate_cxps, relevant_features):
            with pytest.warns(ConstantOnUniverseWarning):
                assert query(problem) == ()


class TestUpClosure:
    """The basis's up-closure, one int of 2^m bits, against the
    definitions it is read for."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_the_sufficiency_table_is_its_definition(self, m):
        rng = random.Random(m)
        bases = [(0,), (), ((1 << m) - 1,)]
        bases += [tuple(seeded_family(rng, m, rng.randint(1, 12))) for _ in range(4)]
        bases += [tuple(rng.randrange(1, 1 << m) for _ in range(rng.randint(1, 6)))
                  for _ in range(4)]
        for basis in bases:
            problem = SimpleNamespace(contrastive_basis=basis,
                                      model=SimpleNamespace(space=SimpleNamespace(m=m)))
            assert sufficiency_table(problem) == [int(all(b & s for b in basis))
                                                  for s in range(1 << m)]

    @pytest.mark.parametrize("m", [*range(6, 11), 12])
    def test_minimal_past_its_budget_equals_the_pairwise_reference(self, m, monkeypatch):
        calls = counted_up_closures(monkeypatch)
        rng = random.Random(m)
        if m == 12:  # the disagreements of 400 rows of a sample
            families = [[rng.randrange(1 << m) for _ in range(400)]]
        else:
            families = [seeded_family(rng, m, 2 << m) for _ in range(3)]
        if 8 <= m <= 10:  # narrower ones stay within the budget
            families += [one_witness_family(rng, m) for _ in range(3)]
        if m == 10:
            families.append(dense_table_family(rng, m))
        for masks in families:
            assert _minimal(masks, m) == pairwise_minimal(masks)
        assert calls == [m] * len(families)

    def test_the_closure_is_built_past_2_to_the_m_comparisons_only(self, monkeypatch):
        # No pair of features holds another, so each of n pairs is compared with
        # every one kept before it: n (n - 1) / 2 comparisons, 28 for 8 and 36
        # for 9, against a budget of 2^5.
        calls = counted_up_closures(monkeypatch)
        pairs = [1 << a | 1 << b for a, b in combinations(range(5), 2)]
        for n, built in ((8, False), (9, True)):
            calls.clear()
            assert _minimal(pairs[:n], 5) == pairwise_minimal(pairs[:n])
            assert bool(calls) == built

    def test_a_tree_basis_is_kept_pairwise(self, monkeypatch):
        # The 20-feature chain tree's leaves give 21 masks: the closure's
        # 2^20 bits would cost this basis milliseconds.
        calls = counted_up_closures(monkeypatch)
        model = model_from_dict(json.loads(chain_tree_doc(20)))
        problem = ExplanationProblem(model, make_instance(model, (1,) * 20),
                                     SimilarityConfig.class_equality())
        assert problem.contrastive_basis == tuple(1 << k for k in range(1, 20, 2))
        assert calls == []


def counted_up_closures(monkeypatch):
    """The m of every _up_closure call from here on."""
    up_closure, calls = shapxp.explanations._up_closure, []

    def counted(masks, m):
        calls.append(m)
        return up_closure(masks, m)

    monkeypatch.setattr(shapxp.explanations, "_up_closure", counted)
    return calls


def dense_table_family(rng, m):
    """The disagreement masks of a table like the benchmark's tab10: m
    binary features, one irrelevant, four output values, about 3/4 of
    its 2^m points dissimilar from a random instance's."""
    relevant = (1 << m) - 1 - (1 << rng.randrange(m))
    values = [rng.randrange(4) for _ in range(1 << m)]
    v = rng.randrange(1 << m)
    return [point ^ v for point in range(1 << m)
            if values[point & relevant] != values[v & relevant]]


class TestHittingSetDuality:
    @pytest.mark.parametrize("family,expected", [
        ([(1,)], {(1,)}),
        ([(1,), (2,)], {(1, 2)}),
        ([(1, 2)], {(1,), (2,)}),
        ([(1, 2), (2, 3)], {(2,), (1, 3)}),
    ])
    def test_small_families(self, family, expected):
        assert set(axps_from_cxps(family)) == expected

    def test_empty_family_rejected(self):
        with pytest.raises(PreconditionError):
            axps_from_cxps([])

    def test_empty_member_rejected(self):
        with pytest.raises(PreconditionError):
            axps_from_cxps([(1,), ()])

    def test_against_brute_force_on_random_families(self):
        rng = random.Random(31337)
        for _ in range(300):
            universe = list(range(1, rng.randint(2, 10)))
            family = {frozenset(rng.sample(universe, rng.randint(1, len(universe))))
                      for _ in range(rng.randint(1, 8))}
            assert minimal_hitting_sets(family) == brute_force_hitting_sets(family)

    def test_a_hitting_set_may_be_larger_than_the_recursion_limit(self):
        family = [frozenset((i,)) for i in range(1, 1101)]
        assert minimal_hitting_sets(family) == {frozenset(range(1, 1101))}

    def test_exponentially_many_hitting_sets_are_guarded(self):
        # k disjoint pairs have 2^k minimal hitting sets.
        pairs = [frozenset((2 * i, 2 * i + 1)) for i in range(40)]
        assert len(minimal_hitting_sets(pairs[:10])) == 1024
        with cpu_limit(2), pytest.raises(SizeLimitError, match="guarded"):
            minimal_hitting_sets(pairs)

    def test_thirteen_pairs_answer_as_the_oracle_does(self):
        # 26 features and 8,192 minimal hitting sets, one per choice of an
        # element from each pair.
        pairs = [frozenset((2 * i, 2 * i + 1)) for i in range(13)]
        with cpu_limit(1):
            hits = minimal_hitting_sets(pairs)
        assert hits == {frozenset(choice) for choice in product(*pairs)}

    def test_a_family_over_24_features_is_never_refused(self):
        # Twelve disjoint pairs, as a 24-feature sample's contrastive
        # explanations may be: the search reaches each of the 4,096 minimal
        # hitting sets once, for 135,171 mask operations of BASIS_GUARD's
        # 4,194,304. Only its work, not its width, is bounded.
        pairs = [frozenset((2 * i, 2 * i + 1)) for i in range(12)]
        assert len(minimal_hitting_sets(pairs)) == 4096

    @pytest.mark.parametrize("n,k,axps", [(12, 6, 792), (14, 7, 3003)])
    def test_every_k_of_n_family_answers_under_a_cpu_alarm(self, n, k, axps):
        # The k-subsets of n features hit minimally by the (n-k+1)-subsets:
        # a search that reaches a set more than once ran 21 s on 6 of 12.
        family = [frozenset(c) for c in combinations(range(1, n + 1), k)]
        with cpu_limit(1):
            hits = minimal_hitting_sets(family)
        assert len(hits) == axps
        assert hits == set(map(frozenset, combinations(range(1, n + 1), n - k + 1)))

    def test_dualizing_cxps_gives_axps(self):
        rng = random.Random(2718)
        for _ in range(25):
            problem = random_tabular_problem(rng, max_m=4)
            cxps = enumerate_cxps(problem)
            assert set(map(frozenset, axps_from_cxps(cxps))) == \
                brute_force_axps(problem)

    def test_double_dualization_is_identity(self):
        rng = random.Random(1618)
        for _ in range(25):
            problem = random_tabular_problem(rng, max_m=4)
            for family in (enumerate_cxps(problem), enumerate_axps(problem)):
                twice = axps_from_cxps(axps_from_cxps(family))
                assert set(twice) == set(family)


class TestRelevancy:
    def test_running_examples(self, cls3_problem, reg2_problem):
        assert relevant_features(cls3_problem) == (1,)
        assert relevant_features(reg2_problem) == (1,)

    def test_union_of_axps_equals_union_of_cxps(self):
        rng = random.Random(808)
        for _ in range(25):
            problem = random_tabular_problem(rng, max_m=4)
            from_cxps = set().union(*map(set, enumerate_cxps(problem)))
            from_axps = set().union(*map(set, enumerate_axps(problem)))
            assert from_cxps == from_axps
            assert set(relevant_features(problem)) == from_cxps


# ---------------------------------------------------------------------------
# Model-agnostic universes
# ---------------------------------------------------------------------------

class TestModelAgnostic:
    def test_full_space_sample_matches_model_aware(self, cls3_problem, reg2_problem):
        for problem in (cls3_problem, reg2_problem):
            agnostic = rebuilt(problem, universe=full_space_sample(problem.model))
            for s in subsets(problem.feature_ids):
                assert is_waxp(agnostic, s) == is_waxp(problem, s)
                assert is_wcxp(agnostic, s) == is_wcxp(problem, s)
            assert enumerate_cxps(agnostic) == enumerate_cxps(problem)
            assert enumerate_axps(agnostic) == enumerate_axps(problem)
            assert relevant_features(agnostic) == relevant_features(problem)

    def test_vacuous_match_is_true(self, cls3_problem):
        rows = ((0, 0, 0), (0, 1, 1))  # nothing matches x1 = 1
        problem = rebuilt(cls3_problem, universe=Sample(rows, (F(0), F(7))))
        assert agnostic_support(problem, (1,)) == 0
        assert is_waxp(problem, (1,))
        with pytest.raises(PreconditionError, match="model-agnostic"):
            agnostic_support(cls3_problem, (1,))

    def test_sample_restriction_can_shrink_explanations(self, cls3_problem):
        # With only similar rows beyond the instance, even the empty set
        # becomes sufficient on the sample.
        rows = ((1, 1, 2), (1, 0, 0))
        problem = rebuilt(cls3_problem, universe=Sample(rows, (F(1), F(1))))
        assert is_waxp(problem, ())


def test_the_universe_is_read_from_the_problem_only(cls3_problem):
    """No public function or method of shapxp takes a universe, a sample
    or a sufficiency table beside the problem that owns them."""
    threaded = []
    for name in dir(shapxp):
        obj = getattr(shapxp, name)
        if name.startswith("_") or not callable(obj):
            continue
        members = [(name, obj)] if inspect.isfunction(obj) else [
            (f"{name}.{attr}", f) for attr, f in inspect.getmembers(obj, inspect.isfunction)
            if not attr.startswith("_")]
        threaded += [qualified for qualified, f in members
                     if {"universe", "sample", "table"} & set(inspect.signature(f).parameters)]
    assert threaded == []
    assert "universe" in inspect.signature(ExplanationProblem).parameters
    assert cls3_problem.universe is None


class TestBoxPredicatesAgainstWitnessOracle:
    @pytest.mark.parametrize("delta,expected", [
        (F(1), True),          # widest deviation with x2 fixed at 1 is exactly 1
        (F(999, 1000), False),
        (F(2), True),
    ])
    def test_waxp_boundary_values(self, pw2_model, delta, expected):
        problem = ExplanationProblem(pw2_model, make_instance(pw2_model, (F(1), F(1))),
                                     SimilarityConfig.threshold(delta))
        assert is_waxp(problem, (2,)) is expected

    @pytest.mark.parametrize("delta,expected", [
        (F(7, 2), True),       # whole output range is within 7/2 of 1
        (F(3499, 1000), False),
    ])
    def test_empty_set_boundary(self, pw2_model, delta, expected):
        problem = ExplanationProblem(pw2_model, make_instance(pw2_model, (F(1), F(1))),
                                     SimilarityConfig.threshold(delta))
        assert is_waxp(problem, ()) is expected

    def test_random_grid_models_match_inset_witnesses(self):
        # A false quantifier must be witnessed by an achievable point near
        # some slice corner; a true one must survive a fine grid scan.
        from boxmodels import inset_corner_points, random_grid_model, slice_cells
        rng = random.Random(246)
        for _ in range(25):
            model = random_grid_model(rng, m=2)
            v = (F(rng.randrange(-4, 5), 4), F(rng.randrange(-4, 5), 4))
            delta = F(rng.randrange(0, 9), 8)
            problem = ExplanationProblem(model, make_instance(model, v),
                                         SimilarityConfig.threshold(delta))
            for fixed in subsets((1, 2)):
                witnesses = [
                    x
                    for cell in slice_cells(model, v, fixed)
                    for x in inset_corner_points(model, cell, v, frozenset(fixed))
                    if not similar(problem, x)
                ]
                if is_waxp(problem, fixed):
                    assert not witnesses
                else:
                    assert witnesses


class TestAdversarialWitness:
    def test_every_cxp_has_a_witness_differing_only_on_it(self):
        from shapxp import enumerate_points
        rng = random.Random(1001)
        for _ in range(20):
            problem = random_tabular_problem(rng, max_m=4)
            v = problem.instance.point
            for cxp in enumerate_cxps(problem):
                fixed = {i: v[i - 1] for i in problem.feature_ids if i not in cxp}
                witnesses = [
                    x for x in enumerate_points(problem.model, fixed)
                    if not similar(problem, x)
                ]
                assert witnesses, f"contrastive set {cxp} has no adversarial point"
                for x in witnesses:
                    diff = {i for i in problem.feature_ids if x[i - 1] != v[i - 1]}
                    assert diff <= set(cxp)
