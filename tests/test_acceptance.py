"""Acceptance suite: the project's exit criteria, one test per criterion.

Each test prints a [PASS]/[FAIL] line (visible with ``pytest -s``); the
stated exactness requirements use rational equality, never tolerances,
and the stated runtime budgets are asserted.
"""

import random
import time
from fractions import Fraction as F

import pytest

from shapxp import (
    CgtConfig,
    cgt_estimate,
    check_compliance,
    conditional_expectation,
    enumerate_axps,
    enumerate_cxps,
    expected_game,
    full_space_sample,
    is_waxp,
    is_wcxp,
    axps_from_cxps,
    rank_features,
    rbo,
    relabel_problem,
    relevant_features,
    shapley_exact,
    shapley_via_permutations,
    summarize_comparisons,
    waxp_game,
)
from shapxp.ranking import compare_scores
from conftest import rebuilt
from randmodels import (
    brute_force_axps,
    random_tabular_problem,
    subsets,
)


def check(criterion: str, condition: bool) -> None:
    print(f"[{'PASS' if condition else 'FAIL'}] {criterion}")
    assert condition, criterion


@pytest.fixture(scope="module")
def random_suite():
    rng = random.Random(0xACCE97)
    return [random_tabular_problem(rng, max_m=5, max_domain=3) for _ in range(100)]


def test_c01_conditional_expectations_exact(pw2_model, pw2_problem):
    started = time.perf_counter()
    values = {
        (): F(1, 2),
        (1,): F(1),
        (2,): F(3, 2),
        (1, 2): F(1),
    }
    ok = all(
        conditional_expectation(pw2_model, pw2_problem.instance, fixed) == expected
        for fixed, expected in values.items()
    )
    elapsed = time.perf_counter() - started
    check("criterion 1: piecewise conditional expectations are 1/2, 1, 3/2, 1 "
          f"exactly in {elapsed:.3f}s", ok and elapsed < 1.0)


def test_c02_piecewise_expected_scores_exact(pw2_problem):
    scores = shapley_exact(expected_game(pw2_problem)).scores
    check("criterion 2: piecewise expected-value scores equal (0, 1/2) exactly",
          scores == (F(0), F(1, 2)))


def test_c03_discrete_reproduction(cls3_problem, reg2_problem):
    sv_e_1 = shapley_exact(expected_game(cls3_problem))
    sv_e_2 = shapley_exact(expected_game(reg2_problem))
    sv_a_1 = shapley_exact(waxp_game(cls3_problem))
    sv_a_2 = shapley_exact(waxp_game(reg2_problem))
    ok = (
        sv_e_1.scores == (F(0), F(1, 12), F(-1, 2))
        and sv_e_2.scores == (F(0), F(1, 4))
        and relevant_features(cls3_problem) == (1,)
        and relevant_features(reg2_problem) == (1,)
        and check_compliance(cls3_problem, sv_e_1).violations == (1, 2, 3)
        and check_compliance(reg2_problem, sv_e_2).violations == (1, 2)
        and check_compliance(cls3_problem, sv_a_1).violations == ()
        and check_compliance(reg2_problem, sv_a_2).violations == ()
    )
    check("criterion 3: discrete fixtures reproduce the published scores, "
          "relevancy, and misleadingness pattern exactly", ok)


def test_c04_corrected_scores_exact(cls3_problem, reg2_problem):
    game_1 = waxp_game(cls3_problem)
    game_2 = waxp_game(reg2_problem)
    vec_1 = shapley_exact(game_1)
    vec_2 = shapley_exact(game_2)
    worth_1 = game_1.value(frozenset(cls3_problem.feature_ids)) - game_1.value(frozenset())
    worth_2 = game_2.value(frozenset(reg2_problem.feature_ids)) - game_2.value(frozenset())
    ok = (
        vec_1.scores == (F(1), F(0), F(0))
        and vec_2.scores == (F(1), F(0))
        and vec_1.total() == worth_1 == 1
        and vec_2.total() == worth_2 == 1
    )
    check("criterion 4: sufficiency-game scores are (1,0,0) and (1,0) and sum "
          "to the game worth 1", ok)


def test_c05_game_axioms_on_random_models(random_suite):
    from itertools import combinations
    started = time.perf_counter()
    ok = True
    for problem in random_suite:
        for game in (expected_game(problem), waxp_game(problem)):
            vec = shapley_exact(game)
            ids = game.players
            ok &= vec.total() == game.value(frozenset(ids)) - game.value(frozenset())
            ok &= shapley_via_permutations(game).scores == vec.scores
            for i in ids:
                rest = [j for j in ids if j != i]
                if all(game.value(frozenset(s) | {i}) == game.value(frozenset(s))
                       for s in subsets(rest)):
                    ok &= vec.score(i) == 0
            for i, j in combinations(ids, 2):
                others = [k for k in ids if k not in (i, j)]
                if all(game.value(frozenset(s) | {i}) == game.value(frozenset(s) | {j})
                       for s in subsets(others)):
                    ok &= vec.score(i) == vec.score(j)
        if not ok:
            break
    elapsed = time.perf_counter() - started
    check("criterion 5: efficiency, null player, symmetry and the permutation "
          f"cross-check hold exactly on 100 random models in {elapsed:.1f}s",
          ok and elapsed < 60.0)


def test_c06_duality_on_random_models(random_suite):
    ok = True
    for problem in random_suite:
        cxps = enumerate_cxps(problem)
        axps = axps_from_cxps(cxps)
        ok &= set(map(frozenset, axps)) == brute_force_axps(problem)
        ok &= set(axps_from_cxps(axps_from_cxps(cxps))) == set(cxps)
        ok &= set(axps_from_cxps(axps_from_cxps(axps))) == set(axps)
        if not ok:
            break
    check("criterion 6: hitting-set dualization matches brute-force abductive "
          "enumeration and double dualization is the identity on 100 random "
          "models", ok)


def test_c07_compliance_on_random_models(random_suite):
    counterexamples = 0
    for problem in random_suite:
        vec = shapley_exact(waxp_game(problem))
        relevant = set(relevant_features(problem))
        for i in problem.feature_ids:
            if (vec.score(i) == 0) != (i not in relevant):
                counterexamples += 1
    check("criterion 7: sufficiency-game scores are zero exactly on irrelevant "
          f"features ({counterexamples} counterexamples over 100 random models)",
          counterexamples == 0)


def test_c08_cgt_calibration(cls3_problem, pw2_problem):
    started = time.perf_counter()
    epsilon = F(1, 20)
    alpha = F(1, 20)
    runs = 200
    rates = []
    for game in (waxp_game(cls3_problem), expected_game(pw2_problem)):
        exact = shapley_exact(game)
        failures = 0
        for seed in range(runs):
            vector, _ = cgt_estimate(game, CgtConfig(epsilon, alpha, seed=seed))
            worst = max(abs(vector.score(i) - exact.score(i)) for i in game.players)
            if worst > epsilon:
                failures += 1
        rates.append(failures / runs)
    elapsed = time.perf_counter() - started
    ok = all(rate <= float(alpha) + 0.04 for rate in rates) and elapsed < 120.0
    check("criterion 8: empirical failure rates over 200 seeded runs are "
          f"{rates[0]:.3f} and {rates[1]:.3f} (bound 0.09) in {elapsed:.1f}s", ok)


def test_c09_ranking_divergence(cls3_problem):
    sv_e = shapley_exact(expected_game(cls3_problem))
    sv_a = shapley_exact(waxp_game(cls3_problem))
    signed_e = rank_features(sv_e, "signed").order
    signed_a = rank_features(sv_a, "signed").order
    overlap = rbo(signed_e, signed_a)  # section-7 defaults: p = 1/2, depth 5
    report = compare_scores({"expected:exact": sv_e, "waxp:exact": sv_a})
    summary = summarize_comparisons([report])
    shaped = all(
        row.minimum <= row.mean <= row.maximum for row in summary) and len(summary) == 2
    ok = (signed_e != signed_a
          and overlap == F(15, 32)
          and float(overlap) == 0.46875
          and shaped)
    check("criterion 9: signed rankings diverge and their overlap is exactly "
          "15/32 = 0.46875; batch summary carries min/max/mean", ok)


def test_c10_model_agnostic_equivalence(cls3_problem, reg2_problem):
    ok = True
    for problem in (cls3_problem, reg2_problem):
        agnostic = rebuilt(problem, universe=full_space_sample(problem.model))
        for s in subsets(problem.feature_ids):
            ok &= is_waxp(agnostic, s) == is_waxp(problem, s)
            ok &= is_wcxp(agnostic, s) == is_wcxp(problem, s)
        ok &= enumerate_axps(agnostic) == enumerate_axps(problem)
        ok &= enumerate_cxps(agnostic) == enumerate_cxps(problem)
        ok &= (shapley_exact(waxp_game(agnostic)).scores
               == shapley_exact(waxp_game(problem)).scores)
        if not ok:
            break
    check("criterion 10: a full-feature-space sample reproduces every "
          "model-aware predicate, explanation set and sufficiency score", ok)


def test_c11_value_independence(cls3_problem):
    rng = random.Random(0xD1CE)
    values = sorted(set(cls3_problem.model.outputs))
    sv_a_before = shapley_exact(waxp_game(cls3_problem)).scores
    sv_e_before = shapley_exact(expected_game(cls3_problem)).scores
    all_sufficiency_stable = True
    some_expected_changed = False
    for _ in range(10):
        images = rng.sample(range(-50, 51), len(values))
        relabel = {v: F(img) for v, img in zip(values, images)}
        relabeled = relabel_problem(cls3_problem, relabel)
        all_sufficiency_stable &= (
            shapley_exact(waxp_game(relabeled)).scores == sv_a_before)
        some_expected_changed |= (
            shapley_exact(expected_game(relabeled)).scores != sv_e_before)
    check("criterion 11: ten random injective relabelings leave sufficiency "
          "scores unchanged while expected-value scores move",
          all_sufficiency_stable and some_expected_changed)
