import hashlib
import json
import random
import runpy
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations
from math import factorial

import pytest

from shapxp import games
from shapxp import (
    CgtConfig,
    DiscreteDomain,
    ExplanationProblem,
    Feature,
    FeatureSpace,
    Game,
    NumericOutputError,
    PreconditionError,
    ScoreVector,
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
    is_wcxp,
    make_instance,
    relabel_problem,
    relevant_features,
    shapley_exact,
    shapley_via_permutations,
    tabulate,
    waxp_game,
)
from shapxp.cli import run_cli
from shapxp.explanations import _ids
from shapxp.models import conditional_expectation, output_range
from boxmodels import random_grid_model
from conftest import FIXTURES, cpu_limit, rebuilt
from randmodels import (
    id_game,
    random_instance,
    random_tabular_problem,
    random_tree_model,
    subsets,
)
from test_io_cli import chain_tree_doc

ROOT = FIXTURES.parent.parent


def table_problem(rows, v, m=2):
    space = FeatureSpace(tuple(
        Feature(i + 1, f"f{i + 1}", DiscreteDomain((0, 1))) for i in range(m)))
    model = TabularModel(space, [rows[p] for p in space.points()], "numeric")
    return ExplanationProblem(model, make_instance(model, v),
                              SimilarityConfig.class_equality())


def dictator_game(m, player=1):
    return id_game(range(1, m + 1),
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

    def test_the_games_agree_with_the_id_forms_on_every_coalition(self, pw2_problem,
                                                                  reg2_sample_problem):
        # The games read the mask straight through the model and the
        # sufficiency check; cf_*, is_wcxp and conditional_expectation turn
        # feature ids into it, so each route checks the other.
        rng = random.Random(50)
        problems = [pw2_problem, reg2_sample_problem]
        for _ in range(6):
            problems.append(random_tabular_problem(rng, max_m=5))
            tree = random_tree_model(rng, rng.randint(1, 5))
            similarity = rng.choice((SimilarityConfig.class_equality(),
                                     SimilarityConfig.threshold(F(1, 2))))
            problems.append(ExplanationProblem(tree, random_instance(rng, tree), similarity))
        box = random_grid_model(rng)
        problems.append(ExplanationProblem(box, make_instance(box, (F(1, 3), F(-1, 5))),
                                           SimilarityConfig.threshold(F(1, 2))))
        for problem in problems:
            m = problem.model.space.m
            full = (1 << m) - 1
            waxp = waxp_game(problem)
            expected = expected_game(problem) if problem.universe is None else None
            for S in range(1 << m):
                ids = _ids(S)
                if expected is not None:
                    assert expected.at(S) == cf_expected(problem, ids) == \
                        conditional_expectation(problem.model, problem.instance, ids)
                assert waxp.at(S) == cf_waxp(problem, ids)
                assert is_wcxp(problem, ids) == (waxp.at(full ^ S) == 0)

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
        game = id_game(range(1, 26), lambda s: F(len(s)))
        with pytest.raises(SizeLimitError):
            shapley_exact(game)

    def test_vector_accessors(self, reg2_problem):
        vec = shapley_exact(expected_game(reg2_problem))
        assert vec.score(2) == F(1, 4)
        assert vec.total() == F(1, 4)
        assert vec.m == 2
        assert (vec.game, vec.method) == ("expected", "exact")


def shapley_loop(game):
    """The weighted subset-sum formula term by term, one sum per player
    over the coalitions without it: the reference for shapley_exact's folds."""
    m = game.m
    numerators, denominator = game.table()
    weights = [factorial(s) * factorial(m - s - 1) for s in range(m)]
    return tuple(F(sum(weights[s.bit_count()] * (numerators[s | 1 << k] - numerators[s])
                       for s in range(1 << m) if not s >> k & 1), factorial(m) * denominator)
                 for k in range(m))


def table_game(rng, m):
    """A game of m players whose table has numerators up to +-10^30 over a
    denominator of 1..9; its function reads the same table."""
    numerators = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(1 << m)]
    denominator = rng.randint(1, 9)
    return Game(tuple(range(1, m + 1)), lambda S: F(numerators[S], denominator),
                kernel=lambda: (numerators, denominator))


class TestShapleyFolds:
    @pytest.mark.parametrize("m", range(11))
    def test_the_folds_equal_the_loop_and_the_permutations(self, m):
        # All m! orders cost about 0.25 s a game at m = 7, 10^2 times that at
        # m = 10, so the loop alone checks m = 7..10.
        rng = random.Random(2026 + m)
        for _ in range(20 if m <= 6 else 4):
            game = table_game(rng, m)
            scores = shapley_exact(game).scores
            assert scores == shapley_loop(game)
            if m <= 6:
                assert scores == shapley_via_permutations(game).scores

    def test_the_folds_equal_the_loop_at_fourteen_players(self):
        game = table_game(random.Random(14), 14)
        assert shapley_exact(game).scores == shapley_loop(game)

    def test_a_20_feature_chain_trees_sufficiency_scores_answer_within_a_second(
            self, capsys, tmp_path):
        # The basis is the 10 even singletons, so the game is their unanimity game.
        path = tmp_path / "chain.json"
        path.write_text(chain_tree_doc(20))
        with cpu_limit(1):
            assert run_cli(["shap", "--model", str(path), "--instance", ",".join("1" * 20),
                            "--game", "waxp"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[4:24]]
        assert [row[-1] for row in rows] == ["0", "1/10"] * 10


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
        game = id_game(range(1, 12), lambda s: F(len(s)))
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

    @pytest.mark.parametrize("scores", [(1,), (1, 0, 0, 5)])
    def test_a_score_vector_of_another_length_is_refused(self, cls3_problem, scores):
        """Too few scores or too many for cls3's three features are refused
        before any is compared, naming both lengths."""
        vector = ScoreVector(tuple(map(F, scores)), "expected", "exact")
        with pytest.raises(ValidationError,
                           match=rf"^score vector has {len(scores)} scores for 3 features$"):
            check_compliance(cls3_problem, vector)

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
        agnostic = rebuilt(cls3_problem, universe=full_space_sample(cls3_problem.model))
        assert check_value_independence(cls3_problem, relabel)
        assert check_value_independence(agnostic, relabel)

    def test_a_sample_prediction_the_map_misses_is_rejected(self, cls3_problem):
        relabel = {y: f"c{y}" for y in set(cls3_problem.model.outputs)}
        agnostic = rebuilt(cls3_problem, universe=Sample(((1, 1, 2),), (F(99),)))
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
        numeric = all(isinstance(y, (int, F)) for y in relabel.values())
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

        def charfn(S):
            calls.append(S)
            return F(S.bit_count())

        game = Game(players, charfn)
        shapley_exact(game)
        shapley_via_permutations(game)
        cgt_estimate(game, CgtConfig(F(1, 10), F(1, 10), seed=3, sample_count=50))
        assert sorted(calls) == list(range(8))

    def test_repeated_player_ids_are_refused(self):
        # With players[0] == players[1], value({1}) would read mask 0b011
        # and the two routes to the scores would part.
        with pytest.raises(ValidationError, match=r"^repeated player ids in \(1, 1, 2\)$"):
            id_game((1, 1, 2), lambda s: F(len(s) + 5 * (2 in s)))

    def test_coalitions_name_only_players(self):
        calls = []
        game = id_game((1, 2), lambda s: calls.append(s) or F(len(s)))
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


# A custom function of each number form a coalition value may take, none
# of them symmetric in the players.
NUMBER_FORMS = {
    "int": lambda S: S.bit_count() + 3 * (S & 1) * (S >> 1 & 1),
    "bool": lambda S: (S & 3) == 3 or bool(S & 4),
    "Fraction": lambda S: F(S.bit_count(), 3) + F(S & 1, 7),
    "float": lambda S: 0.5 * S.bit_count() + 0.1 * (S & 1),
    "Decimal": lambda S: Decimal("0.3") * S.bit_count() - Decimal(S & 2) / 8,
}


class TestNumberForms:
    """The memo holds what a game's function returns; the public API
    returns Fractions: ``Game.value`` and every score. Each custom game
    scores as its twin whose function returns the Fraction of each value."""

    def test_builtin_games_memoize_their_own_forms(self, cls3_problem, reg2_problem, pw2_problem):
        for problem in (cls3_problem, reg2_problem, pw2_problem):
            games = [waxp_game(problem)]
            if problem.model.value_kind == "numeric":
                games.append(expected_game(problem))
            for game in games:
                form = bool if game.tag == "waxp" else F
                for S in range(1 << game.m):
                    assert type(game.at(S)) is form
                for s in subsets(problem.feature_ids):
                    assert type(game.value(s)) is F

    @pytest.mark.parametrize("form", sorted(NUMBER_FORMS))
    def test_custom_values_are_fractions(self, form):
        f = NUMBER_FORMS[form]
        game = Game((4, 2, 7), f)
        for s in subsets((4, 2, 7)):
            value = game.value(s)
            assert type(value) is F
            assert value == F(f(sum(1 << k for k, p in enumerate((4, 2, 7)) if p in s)))

    @pytest.mark.parametrize("form", sorted(NUMBER_FORMS))
    @pytest.mark.parametrize("m", range(4))
    def test_scores_are_the_fraction_twins(self, form, m):
        f = NUMBER_FORMS[form]
        players = tuple(range(1, m + 1))
        config = CgtConfig(F(1, 10), F(1, 10), seed=5, sample_count=40)
        for score in (shapley_exact, shapley_via_permutations,
                      lambda game: cgt_estimate(game, config)[0]):
            got = score(Game(players, f)).scores
            assert all(type(x) is F for x in got)
            assert got == score(Game(players, lambda S: F(f(S)))).scores

    @pytest.mark.parametrize("form", sorted(NUMBER_FORMS))
    def test_memo_route_scores_are_the_fraction_twins(self, form):
        # 3 draws at m = 9 touch at most 26 of the 512 coalitions.
        f, calls = NUMBER_FORMS[form], set()
        game = Game(tuple(range(1, 10)), lambda S: calls.add(S) or f(S))
        config = CgtConfig(F(1, 10), F(1, 10), seed=5, sample_count=3)
        got = cgt_estimate(game, config)[0].scores
        assert len(calls) < 1 << 9
        assert all(type(x) is F for x in got)
        assert got == cgt_estimate(Game(game.players, lambda S: F(f(S))), config)[0].scores


class TestLazyMarginalBound:
    """The expected-value game's marginal bound is the model's output
    width, which only the sampling estimator reads: exact runs never
    compute it."""

    PW2 = ["--model", "docs/fixtures/pw2.json", "--instance", "1,1", "--delta", "1/5"]
    CLS3 = ["--model", "docs/fixtures/cls3.json", "--instance", "1,1,2"]

    @pytest.fixture
    def ranges(self, monkeypatch):
        calls = []

        def counted(model):
            calls.append(model)
            return output_range(model)

        monkeypatch.setattr(games, "output_range", counted)
        monkeypatch.chdir(ROOT)
        return calls

    def run(self, capsys, argv):
        assert run_cli(argv + ["--output", "json"]) == 0
        return capsys.readouterr().out

    def test_exact_runs_on_a_box_model_skip_the_output_range(self, ranges, capsys):
        self.run(capsys, ["shap", *self.PW2, "--game", "expected"])
        self.run(capsys, ["compare", *self.PW2])
        assert ranges == []

    def test_sampling_computes_it_once(self, ranges, capsys):
        report = json.loads(self.run(capsys, ["shap", *self.PW2, "--game", "expected",
                                              "--method", "cgt", "--epsilon", "1"]))
        assert len(ranges) == 1
        assert report["diagnostics"]["marginal_bound"] == "5"  # pw2 spans [-5/2, 5/2]

    @pytest.mark.parametrize("name,argv", [("cls3", CLS3), ("pw2", PW2)])
    def test_fixed_seed_reports_keep_their_digests(self, ranges, capsys, name, argv):
        text = self.run(capsys, ["shap", *argv, "--game", "waxp", "--method", "cgt",
                                 "--epsilon", "1/100", "--seed", "7"])
        digests = runpy.run_path(str(ROOT / "bench" / "fixture_digests.py"))["DIGESTS"]
        assert hashlib.sha256(text.encode()).hexdigest() == digests[f"{name}.cgt_fixed_seed"]

    def test_a_categorical_model_is_refused_before_any_bound_is_asked(self, ranges):
        space = FeatureSpace((Feature(1, "a", DiscreteDomain((0, 1))),))
        model = TabularModel(space, ["no", "yes"], "categorical")
        problem = ExplanationProblem(model, make_instance(model, (1,)),
                                     SimilarityConfig.class_equality())
        with pytest.raises(NumericOutputError, match="expected-value game"):
            expected_game(problem)
        assert ranges == []
