import math
from collections import Counter
from fractions import Fraction as F
from itertools import islice, permutations

import pytest

from shapxp import (
    CgtConfig,
    Game,
    PreconditionError,
    SizeLimitError,
    ValidationError,
    cgt_estimate,
    expected_game,
    permutation_stream,
    shapley_exact,
    waxp_game,
)
from shapxp import cgt as cgt_module
from shapxp.cgt import permutation_at, sample_count


class TestPermutationStream:
    def test_single_element(self):
        perms = list(islice(permutation_stream(123, 1), 50))
        assert perms == [(1,)] * 50

    def test_deterministic_for_a_seed(self):
        a = list(islice(permutation_stream(99, 5), 100))
        b = list(islice(permutation_stream(99, 5), 100))
        assert a == b
        assert a != list(islice(permutation_stream(100, 5), 100))

    def test_indexed_access_matches_stream(self):
        stream = list(islice(permutation_stream(7, 4), 20))
        assert stream == [permutation_at(7, 4, k) for k in range(20)]

    def test_outputs_are_permutations(self):
        for perm in islice(permutation_stream(5, 6), 200):
            assert sorted(perm) == [1, 2, 3, 4, 5, 6]

    def test_uniformity_chi_square_bound(self):
        counts = Counter(islice(permutation_stream(2024, 3), 60_000))
        assert set(counts) == set(permutations((1, 2, 3)))
        for perm, n in counts.items():
            assert abs(n - 10_000) <= 500, f"{perm} drawn {n} times"

    def test_m_must_be_positive(self):
        with pytest.raises(ValidationError):
            permutation_at(0, 0, 0)


class TestSampleCount:
    def test_formula_values(self):
        # ceil(r^2 ln(2m/alpha) / (2 eps^2))
        assert sample_count(F(1, 20), F(1, 20), 3, F(1)) == \
            math.ceil(math.log(120) / 0.005) == 958
        assert sample_count(F(1, 20), F(1, 20), 2, F(5)) == \
            math.ceil(25 * math.log(80) / 0.005) == 21911

    def test_parameters_beyond_float_range_are_counted_exactly(self):
        tiny, huge = F(1, 10 ** 400), F(10 ** 200)
        # ln(2m / alpha) = ln 6 + 400 ln 10 from logarithms of integers
        assert sample_count(F(1, 2), tiny, 3, F(1)) == 1846
        assert sample_count(F(1, 20), F(1, 20), 3, tiny) == 1
        assert sample_count(tiny, F(1, 20), 3, F(1)) == \
            math.ceil(F(10 ** 800, 2) * F(math.log(120)))
        assert sample_count(F(1, 20), F(1, 20), 3, huge) == \
            math.ceil(huge ** 2 * 200 * F(math.log(120)))

    def test_tighter_parameters_need_more_samples(self):
        base = sample_count(F(1, 20), F(1, 20), 3, F(1))
        assert sample_count(F(1, 40), F(1, 20), 3, F(1)) > base
        assert sample_count(F(1, 20), F(1, 40), 3, F(1)) > base


class TestConfig:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            CgtConfig(F(0), F(1, 20))
        with pytest.raises(ValidationError):
            CgtConfig(F(1, 20), F(1))
        with pytest.raises(ValidationError):
            CgtConfig(F(1, 20), F(1, 20), sample_count=0)
        with pytest.raises(ValidationError):
            CgtConfig(F(1, 20), F(1, 20), workers=0)


class TestEstimator:
    def test_constant_game_is_exact_for_any_sample_size(self):
        game = Game((1, 2, 3), lambda s: F(7), marginal_bound=F(0))
        config = CgtConfig(F(1, 20), F(1, 20), seed=3, sample_count=5)
        vector, diag = cgt_estimate(game, config)
        assert vector.scores == (F(0), F(0), F(0))
        assert diag.permutations == 5

    def test_dictator_within_epsilon(self, cls3_problem):
        game = waxp_game(cls3_problem)
        vector, diag = cgt_estimate(game, CgtConfig(F(1, 20), F(1, 20), seed=11))
        exact = shapley_exact(game)
        assert diag.permutations == 958
        for i in game.players:
            assert abs(vector.score(i) - exact.score(i)) <= F(1, 20)

    def test_piecewise_expected_within_epsilon(self, pw2_problem):
        game = expected_game(pw2_problem)
        vector, diag = cgt_estimate(game, CgtConfig(F(1, 20), F(1, 20), seed=11))
        assert diag.marginal_bound == 5
        assert abs(vector.score(1) - 0) <= F(1, 20)
        assert abs(vector.score(2) - F(1, 2)) <= F(1, 20)

    def test_deterministic_given_seed(self, pw2_problem):
        game = expected_game(pw2_problem)
        config = CgtConfig(F(1, 10), F(1, 10), seed=21)
        first, _ = cgt_estimate(game, config)
        second, _ = cgt_estimate(expected_game(pw2_problem), config)
        assert first.scores == second.scores

    def test_worker_count_does_not_change_results(self, pw2_problem):
        base = CgtConfig(F(1, 10), F(1, 10), seed=5)
        seq, _ = cgt_estimate(expected_game(pw2_problem), base)
        for workers in (2, 3, 7):
            config = CgtConfig(F(1, 10), F(1, 10), seed=5, workers=workers)
            par, _ = cgt_estimate(expected_game(pw2_problem), config)
            assert par.scores == seq.scores

    def test_draw_guard_stops_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a permutation")

        monkeypatch.setattr(cgt_module, "permutation_at", no_draws)
        game = Game((1, 2, 3), lambda s: F(len(s)), marginal_bound=F(1))
        for config in (CgtConfig(F(1, 10 ** 400), F(1, 20)),
                       CgtConfig(F(1, 100000), F(1, 20)),
                       CgtConfig(F(1, 20), F(1, 20), sample_count=cgt_module.DRAW_GUARD)):
            with pytest.raises(SizeLimitError):
                cgt_estimate(game, config)

    def test_unbounded_game_needs_override(self):
        game = Game((1, 2), lambda s: F(len(s)))
        with pytest.raises(PreconditionError):
            cgt_estimate(game, CgtConfig(F(1, 20), F(1, 20)))
        vector, diag = cgt_estimate(
            game, CgtConfig(F(1, 20), F(1, 20), sample_count=100))
        assert vector.scores == (F(1), F(1))  # additive game: exact from any order
        assert diag.marginal_bound is None

    def test_unbiased_over_many_seeds(self, pw2_problem):
        # Grand mean over R independent runs approaches the exact values;
        # bound by three empirical standard errors per feature.
        game = expected_game(pw2_problem)
        exact = shapley_exact(game)
        runs = 200
        estimates = []
        for seed in range(runs):
            config = CgtConfig(F(1, 20), F(1, 20), seed=seed, sample_count=1000)
            vector, _ = cgt_estimate(game, config)
            estimates.append(vector.scores)
        for i in game.players:
            values = [float(est[i - 1]) for est in estimates]
            mean = sum(values) / runs
            var = sum((v - mean) ** 2 for v in values) / (runs - 1)
            stderr = (var / runs) ** 0.5
            assert abs(mean - float(exact.score(i))) <= 3 * max(stderr, 1e-12)

    def test_method_tag(self, cls3_problem):
        vector, _ = cgt_estimate(waxp_game(cls3_problem),
                                 CgtConfig(F(1, 4), F(1, 4), sample_count=10))
        assert vector.method == "cgt"
        assert vector.game == "waxp"
