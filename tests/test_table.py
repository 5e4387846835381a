"""The coalition-table kernel against the per-coalition path it replaces.

``shapley_exact`` reads a game's whole coalition table, built in one pass
over the labelled points; ``shapley_via_permutations`` and ``Game.value``
still evaluate one coalition at a time through ``conditional_expectation``
and ``is_waxp``. Every case asserts that the two agree exactly.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

import shapxp.explanations
import shapxp.games
from shapxp import (
    DiscreteDomain,
    ExplanationProblem,
    Feature,
    FeatureSpace,
    Game,
    ModelAgnostic,
    Sample,
    SimilarityConfig,
    TabularModel,
    TreeLeaf,
    TreeModel,
    TreeNode,
    UnsupportedOperationError,
    expected_game,
    make_instance,
    predict,
    shapley_exact,
    shapley_via_permutations,
    tabulate,
    waxp_game,
)
from shapxp.models import labelled_points
from boxmodels import random_grid_model
from randmodels import VALUE_POOL, random_tabular_problem

LABELS = ("no", "yes", "maybe")


def coalition(game, mask):
    return frozenset(p for k, p in enumerate(game.players) if mask >> k & 1)


def assert_kernel_matches_oracle(game):
    numerators, denominator = game.table()
    assert len(numerators) == 1 << game.m
    for mask, n in enumerate(numerators):
        assert F(n, denominator) == game.value(coalition(game, mask)), mask
    assert shapley_exact(game).scores == shapley_via_permutations(game).scores


def with_similarity(problem, similarity):
    return ExplanationProblem(problem.model, problem.instance, similarity)


def random_tree_model(rng, m, max_depth=4, max_domain=3, categorical=False):
    """A random tree over m discrete features; each node splits its
    feature's domain into two or more groups."""
    domains = [tuple(range(rng.randint(2, max_domain))) for _ in range(m)]
    space = FeatureSpace(tuple(
        Feature(i + 1, f"f{i + 1}", DiscreteDomain(domains[i])) for i in range(m)))
    pool = LABELS if categorical else VALUE_POOL
    while True:
        nodes = {}

        def build(free, depth):
            nid = len(nodes)
            nodes[nid] = None
            if depth == 0 or not free or rng.random() < 0.2:
                nodes[nid] = TreeLeaf(rng.choice(pool))
                return nid
            feature = rng.choice(sorted(free))
            values = list(domains[feature - 1])
            rng.shuffle(values)
            cuts = sorted(rng.sample(range(1, len(values)), rng.randint(1, len(values) - 1)))
            groups = [tuple(values[a:b]) for a, b in zip([0] + cuts, cuts + [len(values)])]
            nodes[nid] = TreeNode(feature, tuple(
                (group, build(free - {feature}, depth - 1)) for group in groups))
            return nid

        root = build(frozenset(range(1, m + 1)), max_depth)
        leaves = {n.value for n in nodes.values() if isinstance(n, TreeLeaf)}
        if len(leaves) >= 2:
            return TreeModel(space, nodes, root, "categorical" if categorical else "numeric")


def random_instance(rng, model):
    return make_instance(model, tuple(rng.choice(f.domain.values)
                                      for f in model.space.features))


class TestTabular:
    def test_random_tables_under_class_equality(self):
        rng = random.Random(2718)
        for _ in range(25):
            problem = random_tabular_problem(rng, max_m=5)
            assert_kernel_matches_oracle(expected_game(problem))
            assert_kernel_matches_oracle(waxp_game(problem))

    def test_random_tables_under_threshold_similarity(self):
        rng = random.Random(31415)
        for _ in range(25):
            problem = random_tabular_problem(rng, max_m=5)
            delta = rng.choice((F(0), F(1, 3), F(1, 2), F(2)))
            assert_kernel_matches_oracle(
                waxp_game(with_similarity(problem, SimilarityConfig.threshold(delta))))

    @pytest.mark.parametrize("arity", (2, 3))
    def test_six_features(self, arity):
        rng = random.Random(arity)
        domain = tuple(range(arity))
        space = FeatureSpace(tuple(
            Feature(i + 1, f"f{i + 1}", DiscreteDomain(domain)) for i in range(6)))
        table = {pt: rng.choice(VALUE_POOL) for pt in product(domain, repeat=6)}
        model = TabularModel(space, table, "numeric")
        problem = ExplanationProblem(model, random_instance(rng, model),
                                     SimilarityConfig.class_equality())
        for game in (expected_game(problem), waxp_game(problem),
                     waxp_game(with_similarity(problem, SimilarityConfig.threshold(F(1))))):
            assert_kernel_matches_oracle(game)


class TestTrees:
    def test_random_trees_match_oracle_and_tabulated_twin(self):
        rng = random.Random(1618)
        for _ in range(20):
            model = random_tree_model(rng, rng.randint(1, 5))
            twin = tabulate(model)
            instance = random_instance(rng, model)
            for similarity in (SimilarityConfig.class_equality(),
                               SimilarityConfig.threshold(F(1, 2))):
                tree = ExplanationProblem(model, instance, similarity)
                table = ExplanationProblem(twin, instance, similarity)
                for make in (expected_game, waxp_game):
                    assert_kernel_matches_oracle(make(tree))
                    assert shapley_exact(make(tree)).scores == \
                        shapley_exact(make(table)).scores

    def test_categorical_tree(self):
        rng = random.Random(99)
        for _ in range(10):
            model = random_tree_model(rng, rng.randint(2, 5), categorical=True)
            problem = ExplanationProblem(model, random_instance(rng, model),
                                         SimilarityConfig.class_equality())
            assert_kernel_matches_oracle(waxp_game(problem))


class TestAgnostic:
    def test_random_samples(self):
        rng = random.Random(8128)
        for _ in range(30):
            problem = random_tabular_problem(rng, max_m=5)
            points = list(labelled_points(problem.model))
            # duplicates and partial coverage; small samples leave many
            # coalitions with no matching row, which are vacuously sufficient
            rows = [rng.choice(points) for _ in range(rng.randint(1, 2 * len(points)))]
            sample = Sample(tuple(p for p, _ in rows), tuple(y for _, y in rows))
            for similarity in (SimilarityConfig.class_equality(),
                               SimilarityConfig.threshold(F(1, 2))):
                game = waxp_game(with_similarity(problem, similarity), ModelAgnostic(sample))
                assert_kernel_matches_oracle(game)

    def test_vacuous_coalitions_are_sufficient(self, cls3_problem):
        # one dissimilar row that agrees with the instance on feature 2 only
        v = cls3_problem.instance.point
        row = (1 - v[0], v[1], (v[2] + 1) % 3)
        pred = predict(cls3_problem.model, row)
        assert pred != cls3_problem.instance.prediction
        game = waxp_game(cls3_problem, ModelAgnostic(Sample((row,), (pred,))))
        numerators, denominator = game.table()
        assert denominator == 1
        assert numerators == [0, 1, 0, 1, 1, 1, 1, 1]  # masks with bit 0 or bit 2
        assert_kernel_matches_oracle(game)

    def test_box_model_sample(self):
        rng = random.Random(4)
        model = random_grid_model(rng)
        grid = [F(k, 8) for k in range(-8, 9)]
        rows = tuple((rng.choice(grid), rng.choice(grid)) for _ in range(12))
        instance = make_instance(model, rows[0])
        problem = ExplanationProblem(model, instance, SimilarityConfig.threshold(F(1, 4)))
        sample = Sample(rows, tuple(predict(model, r) for r in rows))
        assert_kernel_matches_oracle(waxp_game(problem, ModelAgnostic(sample)))


class TestGamesWithoutKernel:
    def test_box_model(self):
        rng = random.Random(5)
        for _ in range(3):
            model = random_grid_model(rng)
            problem = ExplanationProblem(model, make_instance(model, (F(1, 3), F(-1, 5))),
                                         SimilarityConfig.threshold(F(1, 2)))
            for game in (expected_game(problem), waxp_game(problem)):
                assert game.kernel is None
                assert_kernel_matches_oracle(game)
        with pytest.raises(UnsupportedOperationError):
            list(labelled_points(model))

    def test_custom_game(self):
        rng = random.Random(6)
        values = {}
        game = Game((1, 2, 3, 4),
                    lambda s: values.setdefault(s, rng.choice(VALUE_POOL)))
        assert_kernel_matches_oracle(game)


class TestNoPerCoalitionFallback:
    """Exact Shapley values on discrete models come from the kernel alone."""

    @pytest.fixture
    def no_slow_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-coalition evaluation on a discrete model")

        monkeypatch.setattr(shapxp.games, "conditional_expectation", forbidden)
        monkeypatch.setattr(shapxp.games, "is_waxp", forbidden)
        monkeypatch.setattr(shapxp.explanations, "is_waxp", forbidden)

    def test_tabular_and_tree(self, no_slow_path, cls3_problem, reg2_problem):
        rng = random.Random(7)
        tree = random_tree_model(rng, 4)
        tree_problem = ExplanationProblem(tree, random_instance(rng, tree),
                                          SimilarityConfig.class_equality())
        sample = Sample(((0, 0, 0), (1, 1, 2)), (F(0), F(7)))
        for problem in (cls3_problem, reg2_problem, tree_problem):
            shapley_exact(expected_game(problem))
            shapley_exact(waxp_game(problem))
        shapley_exact(waxp_game(cls3_problem, ModelAgnostic(sample)))
