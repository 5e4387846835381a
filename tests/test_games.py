import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest

from shapxp import (
    CgtConfig,
    DiscreteDomain,
    ExplanationProblem,
    Feature,
    FeatureSpace,
    Game,
    NumericOutputError,
    PreconditionError,
    SimilarityConfig,
    SizeLimitError,
    TabularModel,
    TreeModel,
    Sample,
    ValidationError,
    cf_expected,
    cf_waxp,
    cgt_estimate,
    check_compliance,
    check_value_independence,
    expected_game,
    full_space_sample,
    make_instance,
    relabel_problem,
    relevant_features,
    shapley_exact,
    shapley_via_permutations,
    tabulate,
    waxp_game,
)
from randmodels import random_tabular_problem, subsets


def table_problem(rows, v, m=2):
    space = FeatureSpace(tuple(
        Feature(i + 1, f"f{i + 1}", DiscreteDomain((0, 1))) for i in range(m)))
    model = TabularModel(space, [rows[p] for p in space.points()], "numeric")
    return ExplanationProblem(model, make_instance(model, v),
                              SimilarityConfig.class_equality())


def dictator_game(m, player=1):
    return Game(tuple(range(1, m + 1)),
                lambda s: F(1 if player in s else 0),
                tag="waxp", marginal_bound=F(1))


# ---------------------------------------------------------------------------
# Characteristic functions
# ---------------------------------------------------------------------------

class TestCharacteristicFunctions:
    def test_expected_examples(self, pw2_problem):
        assert cf_expected(pw2_problem, ()) == F(1, 2)
        assert cf_expected(pw2_problem, (1,)) == F(1)
        assert cf_expected(pw2_problem, (1, 2)) == pw2_problem.instance.prediction

    def test_expected_needs_numeric(self):
        space = FeatureSpace((Feature(1, "a", DiscreteDomain((0, 1))),))
        model = TabularModel(space, ["no", "yes"], "categorical")
        problem = ExplanationProblem(model, make_instance(model, (1,)),
                                     SimilarityConfig.class_equality())
        with pytest.raises(NumericOutputError):
            cf_expected(problem, ())

    def test_waxp_examples(self, cls3_problem):
        assert cf_waxp(cls3_problem, (1,)) == 1
        assert cf_waxp(cls3_problem, ()) == 0
        assert cf_waxp(cls3_problem, cls3_problem.feature_ids) == 1

    def test_waxp_game_is_simple(self):
        # 0/1-valued and monotone over the whole lattice
        rng = random.Random(777)
        for _ in range(15):
            problem = random_tabular_problem(rng, max_m=4)
            game = waxp_game(problem)
            values = {frozenset(s): game.value(s) for s in subsets(problem.feature_ids)}
            assert set(values.values()) <= {0, 1}
            for s, val in values.items():
                for t, other in values.items():
                    if s <= t:
                        assert val <= other


# ---------------------------------------------------------------------------
# Exact Shapley values
# ---------------------------------------------------------------------------

class TestShapleyExact:
    def test_piecewise_expected_scores(self, pw2_problem):
        assert shapley_exact(expected_game(pw2_problem)).scores == (F(0), F(1, 2))

    def test_constant_game_scores_zero(self):
        game = Game((1, 2, 3), lambda s: F(5), marginal_bound=F(0))
        assert shapley_exact(game).scores == (F(0), F(0), F(0))

    def test_dictator_scores(self, cls3_problem):
        # Frozen oracle value: averaging marginals over all 3! orders of a
        # dictator game gives (1, 0, 0).
        assert shapley_exact(waxp_game(cls3_problem)).scores == (F(1), F(0), F(0))
        assert shapley_exact(dictator_game(3)).scores == (F(1), F(0), F(0))

    def test_size_guard(self):
        game = Game(tuple(range(1, 26)), lambda s: F(len(s)))
        with pytest.raises(SizeLimitError):
            shapley_exact(game)

    def test_vector_accessors(self, reg2_problem):
        vec = shapley_exact(expected_game(reg2_problem))
        assert vec.score(2) == F(1, 4)
        assert vec.total() == F(1, 4)
        assert vec.m == 2
        assert (vec.game, vec.method) == ("expected", "exact")


class TestShapleyPermutations:
    def test_single_player(self):
        game = Game((1,), lambda s: F(3) if s else F(1))
        assert shapley_via_permutations(game).scores == (F(2),)

    def test_dictator(self):
        assert shapley_via_permutations(dictator_game(3)).scores == (F(1), F(0), F(0))

    def test_matches_exact_on_fixtures(self, reg2_problem, cls3_problem):
        for game in (expected_game(reg2_problem), waxp_game(cls3_problem)):
            assert shapley_via_permutations(game).scores == shapley_exact(game).scores

    def test_matches_exact_on_random_games(self):
        rng = random.Random(90210)
        for _ in range(15):
            problem = random_tabular_problem(rng, max_m=4)
            for game in (expected_game(problem), waxp_game(problem)):
                assert shapley_via_permutations(game).scores == \
                    shapley_exact(game).scores

    def test_size_guard(self):
        game = Game(tuple(range(1, 12)), lambda s: F(len(s)))
        with pytest.raises(SizeLimitError):
            shapley_via_permutations(game)


class TestGameAxioms:
    def test_efficiency_null_symmetry_on_randoms(self):
        rng = random.Random(1234)
        for _ in range(20):
            problem = random_tabular_problem(rng, max_m=4)
            for game in (expected_game(problem), waxp_game(problem)):
                vec = shapley_exact(game)
                ids = game.players
                n = frozenset(ids)
                assert vec.total() == game.value(n) - game.value(frozenset())
                for i in ids:
                    rest = [j for j in ids if j != i]
                    if all(game.value(frozenset(s) | {i}) == game.value(frozenset(s))
                           for s in subsets(rest)):
                        assert vec.score(i) == 0
                for i, j in combinations(ids, 2):
                    others = [k for k in ids if k not in (i, j)]
                    if all(game.value(frozenset(s) | {i}) == game.value(frozenset(s) | {j})
                           for s in subsets(others)):
                        assert vec.score(i) == vec.score(j)

    def test_symmetric_features_constructed(self):
        # Output symmetric under swapping the two features, instance (1,1).
        problem = table_problem({(0, 0): F(0), (0, 1): F(2), (1, 0): F(2),
                                 (1, 1): F(5)}, (1, 1))
        for game in (expected_game(problem), waxp_game(problem)):
            vec = shapley_exact(game)
            assert vec.score(1) == vec.score(2)

    def test_null_feature_constructed(self):
        # Feature 2 never influences the output.
        problem = table_problem({(0, 0): F(0), (0, 1): F(0), (1, 0): F(3),
                                 (1, 1): F(3)}, (1, 1))
        for game in (expected_game(problem), waxp_game(problem)):
            assert shapley_exact(game).score(2) == 0


# ---------------------------------------------------------------------------
# Compliance and value independence
# ---------------------------------------------------------------------------

class TestCompliance:
    def test_expected_scores_mislead_on_both_fixtures(self, cls3_problem, reg2_problem):
        report = check_compliance(cls3_problem, shapley_exact(expected_game(cls3_problem)))
        assert report.violations == (1, 2, 3)
        assert not report.compliant
        report = check_compliance(reg2_problem, shapley_exact(expected_game(reg2_problem)))
        assert report.violations == (1, 2)

    def test_sufficiency_scores_comply(self, cls3_problem, reg2_problem, pw2_problem):
        for problem in (cls3_problem, reg2_problem, pw2_problem):
            report = check_compliance(problem, shapley_exact(waxp_game(problem)))
            assert report.compliant

    def test_compliance_zero_iff_irrelevant_on_randoms(self):
        rng = random.Random(5150)
        for _ in range(20):
            problem = random_tabular_problem(rng, max_m=4)
            vec = shapley_exact(waxp_game(problem))
            relevant = set(relevant_features(problem))
            for i in problem.feature_ids:
                assert (vec.score(i) == 0) == (i not in relevant)


class TestValueIndependence:
    def test_shift_relabeling_preserves_sufficiency_scores(self, cls3_problem):
        relabel = {F(0): F(10), F(1): F(11), F(4): F(14), F(7): F(17)}
        assert check_value_independence(cls3_problem, relabel)

    def test_identity_relabeling(self, cls3_problem):
        identity = {v: v for v in set(cls3_problem.model.outputs)}
        assert check_value_independence(cls3_problem, identity)

    def test_expected_scores_are_value_dependent(self, cls3_problem):
        relabel = {F(0): F(0), F(1): F(100), F(4): F(4), F(7): F(7)}
        relabeled = relabel_problem(cls3_problem, relabel)
        before = shapley_exact(expected_game(cls3_problem)).scores
        after = shapley_exact(expected_game(relabeled)).scores
        assert before != after

    def test_non_injective_map_rejected(self, cls3_problem):
        squash = {F(0): F(0), F(1): F(0), F(4): F(4), F(7): F(7)}
        with pytest.raises(ValidationError, match="injective"):
            check_value_independence(cls3_problem, squash)

    def test_incomplete_map_rejected(self, cls3_problem):
        with pytest.raises(ValidationError, match="misses"):
            check_value_independence(cls3_problem, {F(0): F(1)})

    def test_a_sample_universe_is_relabeled_with_the_model(self, cls3_problem):
        relabel = {y: f"c{y}" for y in set(cls3_problem.model.outputs)}
        agnostic = replace(cls3_problem, universe=full_space_sample(cls3_problem.model))
        assert check_value_independence(cls3_problem, relabel)
        assert check_value_independence(agnostic, relabel)

    def test_a_sample_prediction_the_map_misses_is_rejected(self, cls3_problem):
        relabel = {y: f"c{y}" for y in set(cls3_problem.model.outputs)}
        agnostic = replace(cls3_problem, universe=Sample(((1, 1, 2),), (F(99),)))
        with pytest.raises(ValidationError, match="misses output value"):
            check_value_independence(agnostic, relabel)

    def test_threshold_similarity_rejected(self, pw2_problem):
        with pytest.raises(PreconditionError):
            check_value_independence(pw2_problem, {})

    @pytest.mark.parametrize("image", [lambda y: 3 * y - 2, lambda y: f"class {y}",
                                       lambda y: y or "zero"],
                             ids=["affine", "labels", "mixed"])
    def test_relabeled_tree_scores_equal_its_tabulated_twins(self, cls3_tree_model, image):
        tree_problem = ExplanationProblem(cls3_tree_model,
                                          make_instance(cls3_tree_model, (1, 1, 2)),
                                          SimilarityConfig.class_equality())
        twin = tabulate(cls3_tree_model)
        twin_problem = ExplanationProblem(twin, make_instance(twin, (1, 1, 2)),
                                          SimilarityConfig.class_equality())
        relabel = {y: image(y) for y in set(twin.outputs)}
        tree_after = relabel_problem(tree_problem, relabel)
        twin_after = relabel_problem(twin_problem, relabel)
        assert isinstance(tree_after.model, TreeModel)
        numeric = all(isinstance(y, F) for y in relabel.values())
        assert tree_after.model.value_kind == ("numeric" if numeric else "categorical")
        assert twin_after.model.value_kind == tree_after.model.value_kind
        assert tabulate(tree_after.model) == twin_after.model
        games = [waxp_game]
        if twin_after.model.value_kind == "numeric":
            games.append(expected_game)
        for game in games:
            assert (shapley_exact(game(tree_after)).scores
                    == shapley_exact(game(twin_after)).scores)

    def test_box_model_cannot_be_relabeled(self, pw2_model):
        problem = ExplanationProblem(pw2_model, make_instance(pw2_model, (F(1), F(1))),
                                     SimilarityConfig.class_equality())
        with pytest.raises(PreconditionError, match="discrete"):
            relabel_problem(problem, {})


class TestNumericalNeutrality:
    def test_sufficiency_game_on_opaque_labels(self):
        space = FeatureSpace(tuple(
            Feature(i + 1, f"f{i + 1}", DiscreteDomain((0, 1))) for i in range(2)))
        table = {(0, 0): "reject", (0, 1): "review", (1, 0): "accept",
                 (1, 1): "accept"}
        model = TabularModel(space, [table[p] for p in space.points()], "categorical")
        problem = ExplanationProblem(model, make_instance(model, (1, 1)),
                                     SimilarityConfig.class_equality())
        assert cf_waxp(problem, (1,)) == 1
        vec = shapley_exact(waxp_game(problem))
        assert vec.scores == (F(1), F(0))
        assert check_compliance(problem, vec).compliant


class TestMemoization:
    @pytest.mark.parametrize("players", [(1, 2, 3), (9, 2, 5)], ids=["1-2-3", "9-2-5"])
    def test_charfn_evaluated_once_per_coalition(self, players):
        calls = []

        def charfn(s):
            calls.append(s)
            return F(len(s))

        game = Game(players, charfn)
        shapley_exact(game)
        shapley_via_permutations(game)
        cgt_estimate(game, CgtConfig(F(1, 10), F(1, 10), seed=3, sample_count=50))
        assert len(calls) == len(set(calls)) == 8
        assert all(isinstance(s, frozenset) and s <= set(players) for s in calls)

    def test_coalitions_name_only_players(self):
        calls = []
        game = Game((1, 2), lambda s: calls.append(s) or F(len(s)))
        with pytest.raises(ValidationError, match="7"):
            game.value({7})
        with pytest.raises(ValidationError, match="7"):
            game.value([1, 7])
        assert calls == []
        assert game.value([2, 1, 2]) == game.value({1, 2}) == 2

    def test_concurrent_evaluation_is_consistent(self, cls3_problem):
        game = waxp_game(cls3_problem)
        coalitions = [frozenset(s) for s in subsets(cls3_problem.feature_ids)] * 8
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(game.value, coalitions))
        reference = {s: game.value(s) for s in set(coalitions)}
        assert all(results[i] == reference[coalitions[i]] for i in range(len(coalitions)))
