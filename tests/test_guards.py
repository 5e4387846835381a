"""One work guard for every run over coalitions.

A run that evaluates n distinct coalitions is charged before its first
one: by the slices it may read (slice points on a discrete model, affine
terms on a box model), or, where sufficiency reads the contrastive basis,
by its set comparisons against the basis. These tests hold the inputs that
ran unguarded to an exit 3 at once, and their smaller twins to an answer,
or, where a search now bounds its own work, to an answer at once.
"""

import json
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from shapxp import (
    CgtConfig,
    ExplanationProblem,
    SimilarityConfig,
    SizeLimitError,
    cgt_estimate,
    expected_game,
    load_model,
    load_sample,
    make_instance,
    waxp_game,
)
from shapxp import cgt as cgt_module
from shapxp.cli import run_cli
from conftest import FIXTURES, cpu_limit
from test_samples import chain_tree_doc, every_k_of


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def one_entry_table(m):
    """m binary features: 1 at the all-zero point, 0 elsewhere by default."""
    features = [{"id": j, "name": f"x{j}", "domain": {"type": "discrete", "values": [0, 1]}}
                for j in range(1, m + 1)]
    return {"version": 1, "kind": "tabular", "features": features,
            "table": [{"point": [0] * m, "value": 1}], "default": 0}


def one_cell_box(m):
    """One cell over [0, 1]^m whose output is x1."""
    features = [{"id": j, "name": f"x{j}", "domain": {"type": "interval", "lo": 0, "hi": 1}}
                for j in range(1, m + 1)]
    return {"version": 1, "kind": "box_piecewise", "features": features,
            "cells": [{"box": [["0", "1"]] * m, "affine": [0, 1] + [0] * (m - 1)}]}


def test_sampling_a_one_entry_tables_sufficiency_game_exits_3_at_once(capsys, tmp_path):
    # Away from the entry, each slice is enumerated whole before it is
    # found sufficient: 3^16 slice points over the 2^16 coalitions.
    path = write(tmp_path, "table.json", one_entry_table(16))
    argv = ["shap", "--game", "waxp", "--method", "cgt", "--model", path,
            "--instance", ",".join(["1"] * 16)]
    with cpu_limit(1):
        assert run_cli(argv) == 3
    assert "sampling guarded at 1048576 slice points, got 43046721" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["relevancy", "--delta", "0"],
                                     ["shap", "--game", "expected"]], ids=" ".join)
def test_a_one_cell_box_model_charges_each_affine_term(capsys, tmp_path, command):
    # 2^18 coalitions visit one cell each, but each visit evaluates 18 terms.
    path = write(tmp_path, "box.json", one_cell_box(18))
    argv = command + ["--model", path, "--instance", ",".join(["1/2"] * 18)]
    with cpu_limit(1):
        assert run_cli(argv) == 3
    assert "coalition table guarded at 1048576 affine terms, got 4718592" in \
        capsys.readouterr().err


def test_the_box_expected_game_is_refused_before_its_first_coalition(tmp_path):
    model = load_model(write(tmp_path, "box.json", one_cell_box(18)))
    problem = ExplanationProblem(model, make_instance(model, (F(1, 2),) * 18),
                                 SimilarityConfig.threshold(0))
    game = expected_game(problem)  # its kernel, the model's expected_table, charges the guard

    def unreached(coalition):
        raise AssertionError("evaluated a coalition")

    game.charfn = unreached
    with pytest.raises(SizeLimitError, match="affine terms"):
        game.table()
    assert not game._cache


@pytest.fixture
def six_of_twelve(tmp_path):
    """A 21-feature problem over a sample whose rows set every 6 of features
    1..12: its basis holds all 924 of those sets."""
    model = load_model(write(tmp_path, "chain.json", chain_tree_doc(21, 12)))
    sample = tmp_path / "s.csv"
    sample.write_text(",".join(f"x{j}" for j in range(1, 22)) + "\n"
                      + every_k_of(12, 6, 21) + "\n")
    return ExplanationProblem(model, make_instance(model, (0,) * 21),
                              SimilarityConfig.class_equality(), load_sample(sample, model))


def test_sampling_past_the_samples_basis_checks_exits_before_any_draw(six_of_twelve,
                                                                      monkeypatch):
    # 1,347 permutations may evaluate 28,288 coalitions, each compared
    # with 21 feature ids and 924 masks: about 26.7M set comparisons.
    def no_draws(*args):
        raise AssertionError("drew a permutation")

    monkeypatch.setattr(cgt_module, "_step_counts", no_draws)
    with pytest.raises(SizeLimitError, match="guarded at 4194304 set comparisons"):
        cgt_estimate(waxp_game(six_of_twelve), CgtConfig(F(1, 20), F(1, 20)))


def test_a_shorter_run_on_the_same_sample_answers(six_of_twelve):
    # 14 permutations: 295 coalitions, about 279,000 comparisons.
    vector, diag = cgt_estimate(waxp_game(six_of_twelve), CgtConfig(F(1, 2), F(1, 20)))
    assert diag.permutations == 14
    assert vector.total() == 1  # each permutation's marginals sum to nu(N) - nu({})
    assert vector.scores[12:] == (0,) * 9  # features 13..21 are in no basis set


def at_least_k_of(n, k):
    """n binary features whose output is 1 when at least k of them are 1."""
    features = [{"id": j, "name": f"x{j}", "domain": {"type": "discrete", "values": [0, 1]}}
                for j in range(1, n + 1)]
    return {"version": 1, "kind": "tabular", "features": features,
            "table": [{"point": list(p), "value": int(sum(p) >= k)}
                      for p in product((0, 1), repeat=n)]}


@pytest.mark.parametrize("n,k", [(12, 6), (14, 7)])
def test_axps_of_an_at_least_k_of_n_table_answer_under_a_cpu_alarm(capsys, tmp_path, n, k):
    # At all-zeros the CXps are every k of n features and the AXps every
    # n - k + 1: the hitting-set search ran 21 s on 6 of 12, and past 90 s
    # on 7 of 14, while it reached sets more than once.
    path = write(tmp_path, "table.json", at_least_k_of(n, k))
    argv = ["enumerate", "--kind", "axp", "--model", path, "--instance",
            ",".join(["0"] * n), "--output", "json"]
    with cpu_limit(2):
        assert run_cli(argv) == 0
    sets = json.loads(capsys.readouterr().out)["results"]["sets"]
    assert sets == [list(c) for c in combinations(range(1, n + 1), n - k + 1)]


def reg2_with_single_values(extra):
    """reg2 with ``extra`` features whose domain holds the one value 0, so
    its space keeps reg2's 4 points while its coalitions number 2^(2+extra)."""
    doc = json.loads((FIXTURES / "reg2.json").read_text())
    doc["features"] += [{"id": j, "name": f"x{j}", "domain": {"type": "discrete", "values": [0]}}
                        for j in range(3, 3 + extra)]
    for entry in doc["table"]:
        entry["point"] += [0] * extra
    return doc


def shap_scores(capsys, argv):
    assert run_cli(argv + ["--output", "json"]) == 0
    return [entry["score"] for entry in json.loads(capsys.readouterr().out)["results"]["scores"]]


@pytest.mark.parametrize("game", ["expected", "waxp"])
def test_exact_scores_are_bounded_by_their_coalition_table(capsys, tmp_path, game):
    # 4 points, but 2^21 coalitions: the table is refused before it is built.
    path = write(tmp_path, "wide.json", reg2_with_single_values(19))
    argv = ["shap", "--game", game, "--model", path, "--instance", ",".join(["1"] * 2 + ["0"] * 19)]
    with cpu_limit(1):
        assert run_cli(argv) == 3
    assert "coalition table guarded at 1048576 coalitions, got 2097152" in \
        capsys.readouterr().err


@pytest.mark.parametrize("game", ["expected", "waxp"])
def test_the_16_feature_twin_scores_as_reg2(capsys, tmp_path, game):
    # The single-value features are null players: they score 0, and x1 and
    # x2 keep reg2's scores.
    wide = write(tmp_path, "wide.json", reg2_with_single_values(14))
    argv = ["shap", "--game", game, "--model", wide, "--instance", ",".join(["1"] * 2 + ["0"] * 14)]
    scores = shap_scores(capsys, argv)
    reg2 = shap_scores(capsys, ["shap", "--game", game, "--model", str(FIXTURES / "reg2.json"),
                                "--instance", "1,1"])
    assert scores == reg2 + ["0"] * 14
