import random
from fractions import Fraction as F

import pytest

from shapxp import (
    Ranking,
    ScoreVector,
    SizeLimitError,
    ValidationError,
    compare_scores,
    expected_game,
    rank_features,
    rbo,
    shapley_exact,
    summarize_comparisons,
    waxp_game,
)


def vector(*scores, game="custom"):
    return ScoreVector(tuple(F(s) for s in scores), game, "exact")


class TestRankFeatures:
    def test_signed_order(self):
        # scores (0, 1/12, -1/2) rank the middle feature first
        assert rank_features(vector(0, F(1, 12), F(-1, 2)), "signed").order == (2, 1, 3)

    def test_absolute_order(self):
        assert rank_features(vector(0, F(1, 12), F(-1, 2)), "absolute").order == (3, 2, 1)

    def test_ties_break_by_feature_id(self):
        assert rank_features(vector(1, 1, 1, 1), "signed").order == (1, 2, 3, 4)

    def test_order_equals_the_id_tiebreak_key(self):
        # Scores drawn from a few values, so ties, zeros and negatives recur.
        rng = random.Random(44)
        for _ in range(300):
            scores = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(rng.randint(1, 9))]
            for mode, key in (("signed", lambda s: s), ("absolute", abs)):
                want = sorted(range(1, len(scores) + 1), key=lambda i: (-key(scores[i - 1]), i))
                assert rank_features(vector(*scores), mode).order == tuple(want)

    def test_absolute_invariant_under_sign_flip(self):
        rng = random.Random(13)
        for _ in range(20):
            scores = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
            flipped = [-s for s in scores]
            assert rank_features(vector(*scores), "absolute").order == \
                rank_features(vector(*flipped), "absolute").order

    def test_ranking_invariant_under_positive_scaling(self):
        rng = random.Random(14)
        for _ in range(20):
            scores = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
            scaled = [s * F(7, 3) for s in scores]
            for mode in ("signed", "absolute"):
                assert rank_features(vector(*scores), mode).order == \
                    rank_features(vector(*scaled), mode).order

    def test_invalid_mode(self):
        with pytest.raises(ValidationError):
            rank_features(vector(1, 2), "upside_down")

    def test_ranking_must_be_permutation(self):
        with pytest.raises(ValidationError):
            Ranking((1, 1, 2), "signed")


class TestRbo:
    def test_identical_rankings_reach_the_cap(self):
        assert rbo((1, 2, 3, 4, 5), (1, 2, 3, 4, 5)) == F(31, 32)  # 1 - (1/2)^5

    def test_disjoint_prefixes_score_zero(self):
        a = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
        b = (6, 7, 8, 9, 10, 1, 2, 3, 4, 5)
        assert rbo(a, b, F(1, 2), 5) == 0

    def test_adjacent_swap_at_depth_five(self):
        assert rbo((1, 2, 3, 4, 5), (2, 1, 3, 4, 5)) == F(15, 32)

    def test_short_lists_extend_with_full_agreement(self):
        # Agreement beyond the list length is computed on the whole lists,
        # so the three-feature swap scores like its five-element analogue.
        assert rbo((1, 2, 3), (2, 1, 3)) == F(15, 32)
        assert rbo((1, 2, 3), (2, 1, 3), F(1, 2), 3) == F(3, 8)

    def test_symmetry(self):
        rng = random.Random(77)
        for _ in range(25):
            m = rng.randint(1, 8)
            a = rng.sample(range(1, m + 1), m)
            b = rng.sample(range(1, m + 1), m)
            p = F(rng.randint(1, 9), 10)
            k = rng.randint(1, 7)
            assert rbo(a, b, p, k) == rbo(b, a, p, k)

    def test_range_and_cap(self):
        rng = random.Random(78)
        for _ in range(25):
            m = rng.randint(1, 8)
            a = rng.sample(range(1, m + 1), m)
            b = rng.sample(range(1, m + 1), m)
            p = F(rng.randint(1, 9), 10)
            k = rng.randint(1, 7)
            value = rbo(a, b, p, k)
            assert 0 <= value <= 1 - p ** k
            if a == b:
                assert value == 1 - p ** k

    def test_mismatched_universes_rejected(self):
        with pytest.raises(ValidationError):
            rbo((1, 2, 3), (1, 2, 4))

    def test_a_repeated_feature_is_rejected(self):
        for a, b in (((1, 1, 2), (1, 2, 2)), ((1, 2, 2), (2, 1, 2)), ((2, 1), (2, 1, 1))):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValidationError):
                    rbo(x, y)
        with pytest.raises(ValidationError, match="twice"):
            rbo((1, 1, 2), (1, 2, 2))

    def test_empty_rankings_agree_fully(self):
        assert rbo((), ()) == 1 - F(1, 2) ** 5
        assert rbo((), (), F(1, 3), 2) == 1 - F(1, 3) ** 2

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            rbo((1, 2), (1, 2), F(0))
        with pytest.raises(ValidationError):
            rbo((1, 2), (1, 2), F(1))
        with pytest.raises(ValidationError):
            rbo((1, 2), (1, 2), F(1, 2), 0)

    def test_depth_guard_bounds_the_size_of_the_result(self):
        # bits(2) = 2, so depth 5000 reaches the 10,000-bit guard exactly.
        value = rbo((1, 2), (1, 2), F(1, 2), 5000)
        assert value == 1 - F(1, 2) ** 5000
        assert len(str(value)) < 4300
        for p, depth in ((F(1, 2), 5001), (F(1, 2), 10 ** 9), (F(999, 1000), 1001)):
            with pytest.raises(SizeLimitError, match="guarded"):
                rbo((1, 2), (1, 2), p, depth)


class TestCompareScores:
    def test_self_comparison_hits_the_cap(self):
        vec = vector(3, 1, 2, 0, -1)
        report = compare_scores({"a": vec, "b": vec})
        assert report.pairs[0].signed == F(31, 32)
        assert report.pairs[0].absolute == F(31, 32)

    def test_divergence_on_running_example(self, cls3_problem):
        vectors = {
            "expected": shapley_exact(expected_game(cls3_problem)),
            "waxp": shapley_exact(waxp_game(cls3_problem)),
        }
        report = compare_scores(vectors)
        assert report.rankings["expected"]["signed"] == (2, 1, 3)
        assert report.rankings["waxp"]["signed"] == (1, 2, 3)
        pair = report.pairs[0]
        assert pair.signed == F(15, 32)

    def test_batch_of_one_collapses(self):
        report = compare_scores({"a": vector(1, 2), "b": vector(2, 1)})
        rows = summarize_comparisons([report])
        assert rows
        for row in rows:
            assert row.minimum == row.maximum == row.mean

    def test_batch_summary_aggregates(self):
        r1 = compare_scores({"a": vector(1, 2, 3), "b": vector(3, 2, 1)})
        r2 = compare_scores({"a": vector(1, 2, 3), "b": vector(1, 2, 3)})
        rows = {(s.method_a, s.method_b, s.mode): s
                for s in summarize_comparisons([r1, r2])}
        signed = rows[("a", "b", "signed")]
        assert signed.minimum == min(r1.pairs[0].signed, r2.pairs[0].signed)
        assert signed.maximum == max(r1.pairs[0].signed, r2.pairs[0].signed)
        assert signed.mean == (r1.pairs[0].signed + r2.pairs[0].signed) / 2

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            summarize_comparisons([])
