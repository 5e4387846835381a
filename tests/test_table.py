"""The coalition-table kernel against the per-coalition path it replaces.

``shapley_exact`` reads a game's whole coalition table, built in one pass
over the labelled points; ``shapley_via_permutations`` and ``Game.value``
still evaluate one coalition at a time through ``Game.at``, that is through
the model's slice expectation or the sufficiency check on the mask. Every
case asserts that the two agree exactly.
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
    Sample,
    SimilarityConfig,
    TabularModel,
    UnsupportedOperationError,
    enumerate_cxps,
    expected_game,
    make_instance,
    predict,
    relevant_features,
    shapley_exact,
    shapley_via_permutations,
    tabulate,
    waxp_game,
)
from shapxp.cli import run_cli
from shapxp.models import labelled_points
from boxmodels import random_grid_model
from conftest import FIXTURES, rebuilt
from randmodels import (
    VALUE_POOL,
    random_instance,
    random_sample,
    random_tabular_problem,
    random_tree_model,
    with_similarity,
)

def coalition(game, mask):
    return frozenset(p for k, p in enumerate(game.players) if mask >> k & 1)


def assert_kernel_matches_oracle(game):
    numerators, denominator = game.table()
    assert len(numerators) == 1 << game.m
    for mask, n in enumerate(numerators):
        assert F(n, denominator) == game.value(coalition(game, mask)), mask
    assert shapley_exact(game).scores == shapley_via_permutations(game).scores


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
        model = TabularModel(space, [table[p] for p in space.points()], "numeric")
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
            sample = random_sample(rng, problem.model)
            for similarity in (SimilarityConfig.class_equality(),
                               SimilarityConfig.threshold(F(1, 2))):
                game = waxp_game(rebuilt(problem, similarity=similarity, universe=sample))
                assert_kernel_matches_oracle(game)

    def test_vacuous_coalitions_are_sufficient(self, cls3_problem):
        # one dissimilar row that agrees with the instance on feature 2 only
        v = cls3_problem.instance.point
        row = (1 - v[0], v[1], (v[2] + 1) % 3)
        pred = predict(cls3_problem.model, row)
        assert pred != cls3_problem.instance.prediction
        game = waxp_game(rebuilt(cls3_problem, universe=Sample((row,), (pred,))))
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
        sample = Sample(rows, tuple(predict(model, r) for r in rows))
        problem = ExplanationProblem(model, instance, SimilarityConfig.threshold(F(1, 4)),
                                     universe=sample)
        assert_kernel_matches_oracle(waxp_game(problem))


class TestBoxKernel:
    def test_box_model(self, monkeypatch):
        rng = random.Random(5)
        expectations = []
        at = Game.at
        monkeypatch.setattr(Game, "at", lambda *args: expectations.append(args) or at(*args))
        for _ in range(3):
            model = random_grid_model(rng)
            problem = ExplanationProblem(model, make_instance(model, (F(1, 3), F(-1, 5))),
                                         SimilarityConfig.threshold(F(1, 2)))
            # The sufficiency game reads its table off the basis, which the
            # model's scan of its cells gives; the expected game reads the
            # model's expected_table, and no coalition one at a time.
            expectations.clear()
            expected_game(problem).table()
            assert expectations == []
            for game in (expected_game(problem), waxp_game(problem)):
                assert_kernel_matches_oracle(game)
        with pytest.raises(UnsupportedOperationError):
            list(labelled_points(model))


class TestGamesWithoutKernel:
    def test_custom_game(self):
        rng = random.Random(6)
        values = {}
        game = Game((1, 2, 3, 4),
                    lambda s: values.setdefault(s, rng.choice(VALUE_POOL)))
        assert_kernel_matches_oracle(game)


class TestNoPerCoalitionFallback:
    """Exact Shapley values, enumeration and relevancy on discrete models
    come from the coalition tables and the contrastive basis, not from
    one coalition at a time."""

    @pytest.fixture
    def no_slow_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-coalition evaluation on a discrete model")

        monkeypatch.setattr(Game, "at", forbidden)
        monkeypatch.setattr(shapxp.explanations, "_sufficient", forbidden)
        monkeypatch.setattr(shapxp.explanations, "is_waxp", forbidden)
        monkeypatch.setattr(shapxp.explanations, "is_wcxp", forbidden)

    @pytest.fixture
    def tree_problem(self):
        rng = random.Random(7)
        tree = random_tree_model(rng, 4)
        return ExplanationProblem(tree, random_instance(rng, tree),
                                  SimilarityConfig.class_equality())

    # The session fixtures may already hold their sufficiency tables, which
    # would hide the build; each test builds on fresh copies instead.
    def test_tabular_and_tree(self, no_slow_path, cls3_problem, reg2_problem, tree_problem):
        sample = Sample(((0, 0, 0), (1, 1, 2)), (F(0), F(7)))
        for problem in (rebuilt(cls3_problem), rebuilt(reg2_problem), tree_problem):
            shapley_exact(expected_game(problem))
            shapley_exact(waxp_game(problem))
        shapley_exact(waxp_game(rebuilt(cls3_problem, universe=sample)))

    def test_enumeration_and_relevancy(self, no_slow_path, cls3_problem, reg2_problem,
                                       tree_problem):
        universe = Sample(((0, 0, 0), (1, 1, 2)), (F(0), F(1)))
        for problem in (rebuilt(cls3_problem), rebuilt(reg2_problem), tree_problem,
                        rebuilt(cls3_problem, universe=universe)):
            enumerate_cxps(problem)
            relevant_features(rebuilt(problem))


EXACT_WAXP = ["shap", "--game", "waxp", "--method", "exact"]
COMPLIANT = "compliance: scores are zero exactly on irrelevant features"
CLS3 = ["--model", str(FIXTURES / "cls3.json"), "--instance", "1,1,2"]


@pytest.mark.parametrize("argv,shown,builds", [
    (EXACT_WAXP + CLS3, COMPLIANT, 1),
    (EXACT_WAXP + ["--model", str(FIXTURES / "cls3_tree.json"), "--instance", "1,1,2"],
     COMPLIANT, 1),
    (EXACT_WAXP + ["--model", str(FIXTURES / "reg2.json"), "--instance", "1,1", "--agnostic",
                   "--sample", str(FIXTURES / "reg2_sample.csv")], COMPLIANT, 1),
    (EXACT_WAXP + ["--model", str(FIXTURES / "pw2.json"), "--instance", "1,1",
                   "--delta", "1/5"], COMPLIANT, 1),
    (["shap", "--game", "expected", "--method", "exact"] + CLS3,
     "compliance: MISLEADING on features [1, 2, 3]", 0),
    (["compare"] + CLS3 + ["--instance", "0,0,0"], "instance (0,0,0):", 2),
], ids=["tabular", "tree", "agnostic", "box", "expected", "compare"])
def test_exact_waxp_scores_and_compliance_share_one_sufficiency_table(
        argv, shown, builds, table_builds, capsys):
    """The sufficiency game's scores build the table once, off the
    problem's contrastive basis, and compliance reads relevancy off that
    basis: so the expected game builds no table, and compare builds one
    per instance."""
    assert run_cli(argv) == 0
    assert shown in capsys.readouterr().out
    assert len(table_builds) == builds


@pytest.fixture
def table_builds(monkeypatch):
    """The problems whose sufficiency table is built, one entry a build,
    counted where the games and the explanations look the builder up."""
    built = []
    build = shapxp.explanations.sufficiency_table

    def counted(problem):
        built.append(problem)
        return build(problem)

    for module in (shapxp.explanations, shapxp.games):
        monkeypatch.setattr(module, "sufficiency_table", counted)
    return built


TREE = ["--model", str(FIXTURES / "cls3_tree.json"), "--instance", "1,1,2"]
AGNOSTIC = ["--model", str(FIXTURES / "reg2.json"), "--instance", "1,1", "--agnostic",
            "--sample", str(FIXTURES / "reg2_sample.csv")]
BOX = ["--model", str(FIXTURES / "pw2.json"), "--instance", "1,1", "--delta", "1/5"]


@pytest.mark.parametrize("universe", [TREE, AGNOSTIC, CLS3, BOX],
                         ids=["tree", "sample", "tabular", "box"])
@pytest.mark.parametrize("command", [
    ["relevancy"], ["axp"], ["cxp"], ["enumerate", "--kind", "axp"],
    ["enumerate", "--kind", "cxp"]], ids=" ".join)
def test_trees_and_samples_explain_without_the_sufficiency_table(
        command, universe, table_builds, capsys):
    """Every scope gives its contrastive basis from its disagreement masks
    without the table (a tree's leaves, a sample's rows, a table's points,
    a box model's cells), and every explanation query reads that basis or
    a slice; only the sufficiency game's scores build the table."""
    assert run_cli(command + universe) == 0
    assert table_builds == []
    assert run_cli(EXACT_WAXP + universe) == 0
    assert len(table_builds) == 1
    capsys.readouterr()
