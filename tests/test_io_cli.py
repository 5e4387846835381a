import gc
import hashlib
import itertools
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from shapxp import (
    RunReport,
    ValidationError,
    load_model,
    load_sample,
    predict,
)
from shapxp.cli import run_cli
from shapxp.modelio import format_value, parse_rational, parse_value
from conftest import FIXTURES, cpu_limit, rebuilt

CLS3 = str(FIXTURES / "cls3.json")
REG2 = str(FIXTURES / "reg2.json")
PW2 = str(FIXTURES / "pw2.json")
REG2_SAMPLE = str(FIXTURES / "reg2_sample.csv")


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


MINIMAL = {
    "version": 1,
    "kind": "tabular",
    "value_kind": "numeric",
    "features": [
        {"id": 1, "name": "a", "domain": {"type": "discrete", "values": [0, 1]}},
    ],
    "table": [{"point": [0], "value": 0}, {"point": [1], "value": 1}],
}


def variant(**changes):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(changes)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# Value parsing
# ---------------------------------------------------------------------------

class TestRationals:
    def test_fraction_strings(self):
        assert parse_rational("3/2") == F(3, 2)
        assert parse_rational("-1/12") == F(-1, 12)
        assert parse_rational(4) == F(4)

    def test_decimals_parse_exactly(self):
        assert parse_rational("0.1") == F(1, 10)  # no binary-float detour

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_rational("one half")
        with pytest.raises(ValidationError):
            parse_rational(True)

    def test_exponents_parse_exactly(self):
        assert parse_rational("1e-3") == F(1, 1000)
        assert parse_rational("-2.5E2") == F(-250)
        assert parse_value("1.5e+1") == F(15)

    def test_literals_past_the_digit_limit_are_not_rationals(self):
        # Written out before reducing, 1e4299 has 4,300 digits, the limit,
        # and the denominator of 1e-4299 has 4,300 too; one more passes it.
        assert parse_rational("1e4299") == 10 ** 4299
        assert parse_rational("1e-4299") == F(1, 10 ** 4299)
        for text in ("1e4300", "1e-4300", "0.5e4300", "1" * 3000 + "." + "1" * 1301,
                     "0e99999999", "1e" + "9" * 5000):
            assert parse_value(text) == text
            with pytest.raises(ValidationError, match="is not a rational literal"):
                parse_rational(text)

    def test_parse_value_falls_back_to_labels(self):
        assert parse_value("red") == "red"
        assert parse_value("3/4") == F(3, 4)

    def test_format_round_trip(self):
        for v in (F(0), F(7), F(-1, 2), F(22, 7), "blue"):
            assert parse_value(format_value(v)) == v


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

class TestLoadModel:
    def test_fixture_models_load_and_predict(self):
        assert predict(load_model(PW2), (F(1), F(1))) == 1
        assert predict(load_model(CLS3), (1, 1, 2)) == 1
        assert predict(load_model(REG2), (0, 0)) == F(-1, 2)

    def test_decimal_bounds_are_exact(self, tmp_path):
        doc = {
            "version": 1, "kind": "box_piecewise", "value_kind": "numeric",
            "features": [{"id": 1, "name": "x",
                          "domain": {"type": "interval", "lo": -0.5, "hi": 1.5}}],
            "cells": [{"box": [[-0.5, 0.5]], "affine": [0, 1]},
                      {"box": [[0.5, 1.5]], "affine": [1, 0]}],
        }
        model = load_model(write(tmp_path, "m.json", json.dumps(doc)))
        assert model.space.domain(1).lo == F(-1, 2)
        assert predict(model, (F(1, 4),)) == F(1, 4)

    def test_missing_point_without_default(self, tmp_path):
        doc = variant(table=[{"point": [0], "value": 0}])
        with pytest.raises(ValidationError, match="total"):
            load_model(write(tmp_path, "m.json", doc))

    def test_default_fills_missing_points(self, tmp_path):
        doc = variant(table=[{"point": [0], "value": 0}], default=1)
        model = load_model(write(tmp_path, "m.json", doc))
        assert predict(model, (1,)) == 1

    def test_constant_table_rejected(self, tmp_path):
        doc = variant(table=[{"point": [0], "value": 1}, {"point": [1], "value": 1}])
        with pytest.raises(ValidationError, match="constant"):
            load_model(write(tmp_path, "m.json", doc))

    def test_version_required(self, tmp_path):
        with pytest.raises(ValidationError, match="version"):
            load_model(write(tmp_path, "m.json", variant(version=2)))

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValidationError, match="kind"):
            load_model(write(tmp_path, "m.json", variant(kind="forest")))

    def test_duplicate_point(self, tmp_path):
        doc = variant(table=[{"point": [0], "value": 0}, {"point": [0], "value": 1},
                             {"point": [1], "value": 1}])
        with pytest.raises(ValidationError, match="duplicate"):
            load_model(write(tmp_path, "m.json", doc))

    def test_categorical_values_must_be_strings(self, tmp_path):
        doc = variant(value_kind="categorical")
        with pytest.raises(ValidationError, match="strings"):
            load_model(write(tmp_path, "m.json", doc))

    @pytest.mark.parametrize("domain,message", [
        ({"type": "discrete", "values": []}, "discrete domain must be non-empty"),
        ({"type": "discrete", "values": [0, "0/1"]}, "discrete domain has duplicate values"),
        ({"type": "interval", "lo": 1, "hi": "1/1"}, "interval domain needs lo < hi, got [1, 1]"),
    ], ids=["empty", "duplicate", "interval"])
    def test_a_domain_error_names_the_file_and_the_feature(self, tmp_path, domain, message):
        doc = json.loads(variant())
        doc["features"].append({"id": 2, "name": "b", "domain": domain})
        path = write(tmp_path, "m.json", json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: feature 2: {message}"

    def test_not_json(self, tmp_path):
        with pytest.raises(ValidationError, match="JSON"):
            load_model(write(tmp_path, "m.json", "not json"))


# ---------------------------------------------------------------------------
# Sample files
# ---------------------------------------------------------------------------

class TestLoadSample:
    def test_fixture_sample(self, reg2_model):
        sample = load_sample(REG2_SAMPLE, reg2_model)
        assert len(sample) == 4
        assert sample.predictions[0] == F(-1, 2)

    def test_full_enumeration_sample_matches_model_aware(self, reg2_model,
                                                         reg2_problem):
        from shapxp import enumerate_axps, enumerate_cxps, is_waxp
        from randmodels import subsets
        agnostic = rebuilt(reg2_problem, universe=load_sample(REG2_SAMPLE, reg2_model))
        for s in subsets(reg2_problem.feature_ids):
            assert is_waxp(agnostic, s) == is_waxp(reg2_problem, s)
        assert enumerate_cxps(agnostic) == enumerate_cxps(reg2_problem)
        assert enumerate_axps(agnostic) == enumerate_axps(reg2_problem)

    def test_predictions_computed_when_absent(self, tmp_path, reg2_model):
        path = write(tmp_path, "s.csv", "x1,x2\n0,1\n1,1\n")
        sample = load_sample(path, reg2_model)
        assert sample.predictions == (F(3, 2), F(1))

    def test_tab_delimiter(self, tmp_path, reg2_model):
        path = write(tmp_path, "s.tsv", "x1\tx2\n0\t0\n")
        assert load_sample(path, reg2_model).rows == ((0, 0),)

    def test_empty_file_rejected(self, tmp_path, reg2_model):
        path = write(tmp_path, "s.csv", "x1,x2,prediction\n")
        with pytest.raises(ValidationError, match="at least one row"):
            load_sample(path, reg2_model)

    def test_prediction_mismatch_rejected(self, tmp_path, reg2_model):
        path = write(tmp_path, "s.csv", "x1,x2,prediction\n0,0,1\n")
        with pytest.raises(ValidationError, match="disagrees"):
            load_sample(path, reg2_model)

    def test_out_of_domain_value_rejected(self, tmp_path, reg2_model):
        path = write(tmp_path, "s.csv", "x1,x2\n0,5\n")
        with pytest.raises(ValidationError, match="outside domain"):
            load_sample(path, reg2_model)

    @pytest.mark.parametrize("model", ["reg2_model", "reg2_tree_model", "pw2_model"])
    def test_out_of_domain_row_is_named_by_line_for_every_kind(self, tmp_path, request,
                                                                model):
        path = write(tmp_path, "s.csv", "x1,x2\n0,0\n0,5\n")
        with pytest.raises(ValidationError,
                           match=r"s\.csv:3: value .+ outside domain of feature 2 \(x2\)$"):
            load_sample(path, request.getfixturevalue(model))

    def test_wrong_header_rejected(self, tmp_path, reg2_model):
        path = write(tmp_path, "s.csv", "a,b\n0,0\n")
        with pytest.raises(ValidationError, match="header"):
            load_sample(path, reg2_model)

    def test_categorical_predictions_are_labels(self, tmp_path, capsys):
        # Labels that read as rationals stay labels in the prediction column.
        model = write(tmp_path, "cat.json", variant(
            value_kind="categorical",
            table=[{"point": [0], "value": "0"}, {"point": [1], "value": "1"}]))
        sample = write(tmp_path, "s.csv", "a,prediction\n0,0\n1,1\n")
        assert load_sample(sample, load_model(model)).predictions == ("0", "1")
        assert run_cli(["validate", "--model", model, "--sample", sample]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_json(capsys, argv):
    code = run_cli(argv + ["--output", "json"])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def one_split_tree(m):
    """A tree over m ternary features that splits on feature 1 only."""
    features = [{"id": i, "name": f"x{i}", "domain": {"type": "discrete",
                                                      "values": [0, 1, 2]}}
                for i in range(1, m + 1)]
    nodes = [{"id": 0, "feature": 1, "edges": [{"values": [0], "child": 1},
                                               {"values": [1, 2], "child": 2}]},
             {"id": 1, "value": 0}, {"id": 2, "value": 1}]
    return {"version": 1, "kind": "tree", "features": features, "root": 0, "nodes": nodes}


def two_cell_box(m):
    """A box model over m unit intervals: two cells split on feature 1,
    the output x1 on the upper one and 0 on the lower."""
    features = [{"id": i, "name": f"x{i}", "domain": {"type": "interval",
                                                      "lo": "0", "hi": "1"}}
                for i in range(1, m + 1)]
    rest = [["0", "1"]] * (m - 1)
    cells = [{"box": [["0", "1/2"]] + rest, "affine": [0] * (m + 1)},
             {"box": [["1/2", "1"]] + rest, "affine": [0, 1] + [0] * (m - 1)}]
    return {"version": 1, "kind": "box_piecewise", "features": features, "cells": cells}


class TestCli:
    def test_relevancy(self, capsys):
        doc = run_json(capsys, ["relevancy", "--model", CLS3, "--instance", "1,1,2"])
        assert doc["results"]["relevant"] == [1]

    def test_shap_waxp_exact(self, capsys):
        doc = run_json(capsys, ["shap", "--model", CLS3, "--instance", "1,1,2",
                                "--game", "waxp", "--method", "exact"])
        assert [row["score"] for row in doc["results"]["scores"]] == ["1", "0", "0"]

    def test_shap_expected_exact_on_piecewise(self, capsys):
        doc = run_json(capsys, ["shap", "--model", PW2, "--instance", "1,1",
                                "--game", "expected"])
        assert [row["score"] for row in doc["results"]["scores"]] == ["0", "1/2"]

    def test_shap_reports_compliance_for_exact_scores(self, capsys):
        doc = run_json(capsys, ["shap", "--model", CLS3, "--instance", "1,1,2",
                                "--game", "expected"])
        assert doc["results"]["compliance"]["violations"] == [1, 2, 3]
        doc = run_json(capsys, ["shap", "--model", CLS3, "--instance", "1,1,2",
                                "--game", "waxp"])
        assert doc["results"]["compliance"]["compliant"] is True

    def test_shap_compliance_omitted_without_a_usable_predicate(self, capsys):
        doc = run_json(capsys, ["shap", "--model", PW2, "--instance", "1,1",
                                "--game", "expected"])
        assert "compliance" not in doc["results"]
        doc = run_json(capsys, ["shap", "--model", PW2, "--instance", "1,1",
                                "--game", "expected", "--delta", "1/5"])
        assert doc["results"]["compliance"]["violations"] == [1, 2]

    def test_shap_cgt_reports_diagnostics(self, capsys):
        doc = run_json(capsys, ["shap", "--model", CLS3, "--instance", "1,1,2",
                                "--game", "waxp", "--method", "cgt", "--seed", "4"])
        assert doc["diagnostics"]["permutations"] == 958
        assert doc["diagnostics"]["seed"] == 4

    def test_axp_and_cxp(self, capsys):
        doc = run_json(capsys, ["axp", "--model", REG2, "--instance", "1,1"])
        assert doc["results"]["axp"] == [1]
        doc = run_json(capsys, ["cxp", "--model", REG2, "--instance", "1,1",
                                "--from", "1,2"])
        assert doc["results"]["cxp"] == [1]

    @pytest.mark.parametrize("command", ["axp", "cxp"])
    def test_an_empty_from_names_no_feature(self, capsys, command):
        # An empty --from is a list of one empty id, not "every feature".
        assert run_cli([command, "--model", CLS3, "--instance", "1,1,2", "--from", ""]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --from: '' is not a feature id\n"

    def test_enumerate(self, capsys):
        doc = run_json(capsys, ["enumerate", "--model", CLS3, "--instance", "1,1,2",
                                "--kind", "cxp"])
        assert doc["results"]["sets"] == [[1]]

    def test_compare_summary_shape(self, capsys):
        doc = run_json(capsys, ["compare", "--model", CLS3, "--instance", "1,1,2"])
        summary = doc["results"]["summary"]
        assert {row["mode"] for row in summary} == {"signed", "absolute"}
        signed = next(r for r in summary if r["mode"] == "signed")
        assert signed["min"] == signed["max"] == signed["mean"] == "15/32"

    def test_compare_batch(self, capsys):
        doc = run_json(capsys, ["compare", "--model", REG2,
                                "--instance", "1,1", "--instance", "0,0",
                                "--delta", "1/4"])
        assert len(doc["results"]["instances"]) == 2
        for row in doc["results"]["summary"]:
            assert set(row) >= {"min", "max", "mean"}

    def test_agnostic_axp_with_support(self, capsys):
        doc = run_json(capsys, ["axp", "--model", REG2, "--instance", "1,1",
                                "--agnostic", "--sample", REG2_SAMPLE])
        assert doc["results"]["axp"] == [1]
        assert doc["results"]["vacuous"] is False

    def test_agnostic_vacuous_flag(self, capsys, tmp_path):
        path = write(tmp_path, "s.csv", "x1,x2\n0,0\n0,1\n")
        doc = run_json(capsys, ["axp", "--model", REG2, "--instance", "1,1",
                                "--agnostic", "--sample", str(path)])
        assert doc["results"]["vacuous"] is True

    def test_validate_ok(self, capsys):
        doc = run_json(capsys, ["validate", "--model", CLS3])
        assert doc["results"] == {"ok": True, "points": 12}
        doc = run_json(capsys, ["validate", "--model", REG2, "--sample", REG2_SAMPLE])
        assert doc["results"]["sample_rows"] == 4

    def test_validate_and_commands_reject_the_same_files(self, capsys, tmp_path):
        broken = write(tmp_path, "broken.json",
                       variant(table=[{"point": [0], "value": 1},
                                      {"point": [1], "value": 1}]))
        for argv in (["validate", "--model", broken],
                     ["shap", "--model", broken, "--instance", "1",
                      "--game", "waxp"]):
            assert run_cli(argv) == 2
            capsys.readouterr()

    def test_a_categorical_box_model_exits_2(self, capsys, tmp_path):
        path = tmp_path / "pw2.json"
        path.write_bytes(mutated("pw2.json", ("value_kind",), "categorical"))
        assert run_cli(["validate", "--model", str(path)]) == 2
        assert "box-piecewise models are numeric-valued" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert run_cli(["validate", "--model", "no/such/file.json"]) == 2
        capsys.readouterr()

    def test_out_of_domain_instance_exits_2(self, capsys):
        assert run_cli(["relevancy", "--model", CLS3, "--instance", "9,9,9"]) == 2
        capsys.readouterr()

    def test_missing_delta_for_interval_model_exits_2(self, capsys):
        assert run_cli(["relevancy", "--model", PW2, "--instance", "1,1"]) == 2
        err = capsys.readouterr().err
        assert "--delta" in err

    def test_delta_enables_interval_model_explanations(self, capsys):
        doc = run_json(capsys, ["relevancy", "--model", PW2, "--instance", "1,1",
                                "--delta", "1/5"])
        assert doc["results"]["relevant"] == [1]

    def test_agnostic_without_sample_exits_2(self, capsys):
        assert run_cli(["relevancy", "--model", CLS3, "--instance", "1,1,2",
                        "--agnostic"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["relevancy"], ["axp"], ["cxp"], ["enumerate", "--kind", "axp"],
        ["shap", "--game", "waxp"], ["compare"],
    ], ids=" ".join)
    def test_sample_without_agnostic_exits_2(self, capsys, command):
        # Without --agnostic the run would quantify over the model's space
        # and leave the sample unread.
        assert run_cli(command + ["--model", REG2, "--instance", "1,1",
                                  "--sample", REG2_SAMPLE]) == 2
        assert "--agnostic" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["shap", "--game", "expected"], ["shap", "--game", "expected", "--method", "cgt"],
        ["compare"]], ids=" ".join)
    def test_expected_game_over_a_sample_exits_2(self, capsys, command):
        # The expected value averages over the model's space; a sample
        # universe would be reported but not read.
        assert run_cli(command + ["--model", REG2, "--instance", "1,1", "--agnostic",
                                  "--sample", REG2_SAMPLE]) == 2
        assert "defined over the model's space" in capsys.readouterr().err

    def test_computation_error_exits_3(self, capsys, tmp_path):
        doc = variant(value_kind="categorical",
                      table=[{"point": [0], "value": "no"},
                             {"point": [1], "value": "yes"}])
        path = write(tmp_path, "cat.json", doc)
        assert run_cli(["shap", "--model", path, "--instance", "1",
                        "--game", "expected"]) == 3
        capsys.readouterr()

    def test_tiny_epsilon_hits_the_draw_guard(self, capsys):
        for epsilon in ("1/1" + "0" * 400, "1/100000"):
            assert run_cli(["shap", "--model", CLS3, "--instance", "1,1,2",
                            "--game", "waxp", "--method", "cgt",
                            "--epsilon", epsilon]) == 3
            assert "guarded" in capsys.readouterr().err

    def test_tiny_alpha_is_counted_exactly(self, capsys):
        alpha = F(1, 10 ** 400)
        doc = run_json(capsys, ["shap", "--model", CLS3, "--instance", "1,1,2",
                                "--game", "waxp", "--method", "cgt",
                                "--epsilon", "1/2", "--alpha", str(alpha)])
        # ceil(ln(2m / alpha) / (2 epsilon^2)) with m = 3 and bound 1
        want = math.ceil(2 * (math.log(6) + 400 * math.log(10)))
        assert doc["diagnostics"]["permutations"] == want == 1846

    @pytest.mark.parametrize("depth", ["20000", str(10 ** 9)])
    def test_compare_depth_beyond_the_guard_exits_3(self, capsys, depth):
        assert run_cli(["compare", "--model", CLS3, "--instance", "1,1,2",
                        "--depth", depth]) == 3
        assert "guarded" in capsys.readouterr().err

    def test_relevancy_past_24_features_exits_3(self, capsys, tmp_path):
        # A box model of 25 features reads its basis off the 2^25-entry
        # sufficiency table, which the table guard refuses before any entry.
        path = write(tmp_path, "wide.json", json.dumps(two_cell_box(25)))
        started = time.process_time()
        assert run_cli(["relevancy", "--model", path, "--instance", ",".join("0" * 25),
                        "--delta", "0"]) == 3
        assert time.process_time() - started < 1
        assert "guarded" in capsys.readouterr().err

    @pytest.mark.parametrize("command,model,message", [
        (["shap", "--game", "expected", "--method", "cgt"], one_split_tree(25),
         "sampling guarded at 1048576 slice points"),
        (["shap", "--game", "waxp", "--method", "exact"], one_split_tree(21),
         "coalition table guarded at 1048576 coalitions"),
        (["relevancy", "--delta", "0"], two_cell_box(20),
         "coalition table guarded at 1048576 affine terms, got 41943040")],
        ids=["shap-cgt", "shap-waxp-exact", "relevancy"])
    def test_slices_past_the_point_guard_exit_3(self, capsys, tmp_path, command, model,
                                                message):
        # The expected game's slices pass 2^20 points; the tree's sufficiency
        # table, 2^20 coalitions; the box model's scan for its basis, 2^20
        # affine terms (2 cells of 20 terms for each of 2^20 coalitions).
        path = write(tmp_path, "wide.json", json.dumps(model))
        m = len(model["features"])
        started = time.process_time()
        assert run_cli(command + ["--model", path, "--instance", ",".join("0" * m)]) == 3
        assert time.process_time() - started < 5
        assert message in capsys.readouterr().err

    def test_a_wide_tree_scores_its_sufficiency_game(self, capsys, tmp_path):
        # 3^16 points, but the table of 2^16 coalitions is the closure of
        # the basis {{1}} from one walk over the tree's three nodes.
        path = write(tmp_path, "wide.json", json.dumps(one_split_tree(16)))
        with cpu_limit(1):
            doc = run_json(capsys, ["shap", "--game", "waxp", "--model", path,
                                    "--instance", ",".join("0" * 16)])
        assert [row["score"] for row in doc["results"]["scores"]] == ["1"] + ["0"] * 15

    @pytest.mark.parametrize("command,key,found", [
        (["axp"], "axp", [1]), (["cxp"], "cxp", [1]), (["relevancy"], "relevant", [1]),
        (["enumerate", "--kind", "axp"], "sets", [[1]])],
        ids=["axp", "cxp", "relevancy", "enumerate-axp"])
    def test_a_wide_tree_is_explained_from_its_basis(self, capsys, tmp_path, command, key,
                                                     found):
        # 3^25 points, but one walk over the tree's three nodes gives the
        # basis {{1}}, and every answer reads it.
        path = write(tmp_path, "wide.json", json.dumps(one_split_tree(25)))
        with cpu_limit(1):
            doc = run_json(capsys, command + ["--model", path,
                                              "--instance", ",".join("0" * 25)])
        assert doc["results"][key] == found

    def test_a_small_slice_of_a_wide_space_still_answers(self, capsys, tmp_path):
        # 3^25 points, but shrinking {1} reads slices of 3 points and 1 point.
        path = write(tmp_path, "wide.json", json.dumps(one_split_tree(25)))
        started = time.process_time()
        doc = run_json(capsys, ["cxp", "--model", path, "--instance", ",".join("0" * 25),
                                "--from", "1"])
        assert time.process_time() - started < 1
        assert doc["results"]["cxp"] == [1]

    def test_default_past_the_point_guard_exits_3(self, capsys, tmp_path):
        # 2^40 points to fill from one entry and a default.
        features = [{"id": i, "name": f"x{i}", "domain": {"type": "discrete",
                                                          "values": [0, 1]}}
                    for i in range(1, 41)]
        path = write(tmp_path, "wide.json", json.dumps(
            {"version": 1, "kind": "tabular", "features": features,
             "table": [{"point": [1] * 40, "value": 1}], "default": 0}))
        started = time.process_time()
        assert run_cli(["validate", "--model", path]) == 3
        assert time.process_time() - started < 5
        assert "guarded" in capsys.readouterr().err

    def test_a_wide_table_without_default_exits_3_before_allocating(self, capsys, tmp_path):
        # One entry of 2^40 points: the dense slots are refused before any
        # is allocated, not filled and then found short.
        features = [{"id": i, "name": f"x{i}", "domain": {"type": "discrete",
                                                          "values": [0, 1]}}
                    for i in range(1, 41)]
        path = write(tmp_path, "wide.json", json.dumps(
            {"version": 1, "kind": "tabular", "features": features,
             "table": [{"point": [1] * 40, "value": 1}]}))
        tracemalloc.start()
        try:
            with cpu_limit(5):
                assert run_cli(["validate", "--model", path]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 24
        assert "enumeration guarded at 1048576 points, got 1099511627776" in \
            capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["shap", "--model", CLS3, "--frobnicate"])
        assert exc.value.code == 2

    def test_one_process_runs_many_commands(self, capsys):
        doc = run_json(capsys, ["compare", "--model", REG2,
                                "--instance", "1,1", "--instance", "0,0", "--delta", "1/4"])
        assert len(doc["results"]["instances"]) == 2
        doc = run_json(capsys, ["shap", "--model", REG2, "--instance", "0,1",
                                "--game", "expected"])
        assert doc["instance"]["point"] == [0, 1]
        with pytest.raises(SystemExit):
            run_cli(["shap", "--model", REG2, "--game", "nosuch"])
        capsys.readouterr()
        doc = run_json(capsys, ["relevancy", "--model", CLS3, "--instance", "1,1,2"])
        assert doc["results"]["relevant"] == [1]

    def test_table_output_renders_six_decimals(self, capsys):
        assert run_cli(["shap", "--model", REG2, "--instance", "1,1",
                        "--game", "expected"]) == 0
        out = capsys.readouterr().out
        assert "0.250000" in out and "1/4" in out

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["relevancy", "--instance", "1,1,2"],
        ["axp", "--instance", "1,1,2"],
        ["cxp", "--instance", "1,1,2"],
        ["enumerate", "--instance", "1,1,2", "--kind", "axp"],
        ["shap", "--instance", "1,1,2", "--game", "waxp"],
        ["compare", "--instance", "1,1,2"],
    ], ids=lambda argv: argv[0])
    def test_every_command_reports_its_time(self, capsys, argv):
        argv = [argv[0], "--model", CLS3, *argv[1:]]
        assert run_json(capsys, argv + ["--with-timing"])["timing_ms"] >= 0
        assert "timing_ms" not in run_json(capsys, argv)
        assert run_cli(argv) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"time: \d+\.\d ms", last), last


def mutated(fixture, path, value):
    """The fixture's JSON bytes with the entry at ``path`` set to ``value``."""
    doc = json.loads((FIXTURES / fixture).read_text())
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return json.dumps(doc).encode()


def not_utf8(fixture):
    return b"\xff" + (FIXTURES / fixture).read_bytes()


VALIDATE = ["validate", "--model", "model.json"]
HOSTILE_INPUTS = [
    pytest.param({"model.json": mutated("reg2.json", ("features", 0), 3)}, VALIDATE,
                 id="feature-not-an-object"),
    pytest.param({"model.json": mutated("reg2.json", ("features", 0, "domain"), [0, 1])},
                 VALIDATE, id="domain-not-an-object"),
    pytest.param({"model.json": mutated("reg2.json", ("features", 0, "domain", "values"), 5)},
                 VALIDATE, id="values-not-a-list"),
    pytest.param({"model.json": mutated("reg2.json", ("features", 0, "domain", "values"), "01")},
                 VALIDATE, id="values-a-string"),
    pytest.param({"model.json": mutated("reg2.json", ("features", 0, "name"), ["x1"])},
                 VALIDATE, id="name-not-a-string"),
    pytest.param({"model.json": mutated("cls3_tree.json", ("nodes", 0, "edges"), 3)},
                 VALIDATE, id="edges-not-a-list"),
    pytest.param({"model.json": mutated("cls3_tree.json", ("nodes", 0, "edges", 0), 3)},
                 VALIDATE, id="edge-not-an-object"),
    pytest.param({"model.json": mutated("cls3_tree.json",
                                        ("nodes", 0, "edges", 0, "values"), 1)},
                 VALIDATE, id="edge-values-not-a-list"),
    pytest.param({"model.json": mutated("cls3_tree.json",
                                        ("nodes", 0, "edges", 0, "child"), [1])},
                 VALIDATE, id="edge-child-a-list"),
    pytest.param({"model.json": mutated("cls3_tree.json", ("nodes", 1, "id"), [1])},
                 VALIDATE, id="node-id-a-list"),
    pytest.param({"model.json": mutated("cls3_tree.json", ("root",), [0])},
                 VALIDATE, id="root-a-list"),
    pytest.param({"model.json": mutated("cls3_tree.json", ("nodes", 0, "feature"), [1])},
                 VALIDATE, id="feature-a-list"),
    pytest.param({"model.json": mutated("cls3_tree.json", ("nodes", 0, "feature"), 1.0)},
                 VALIDATE, id="feature-a-decimal"),
    pytest.param({"model.json": mutated("cls3.json", ("features", 0, "id"), 1.0)},
                 VALIDATE, id="feature-id-a-decimal"),
    pytest.param({"model.json": mutated("cls3.json", ("features", 0, "id"), True)},
                 VALIDATE, id="feature-id-a-boolean"),
    pytest.param({"model.json": mutated("pw2.json", ("cells", 0, "box", 0), 1)},
                 VALIDATE, id="box-bound-not-a-pair"),
    pytest.param({"model.json": mutated("pw2.json", ("cells", 0, "box", 0), [0, 1, 2])},
                 VALIDATE, id="box-bound-a-triple"),
    pytest.param({"model.json": not_utf8("reg2.json")}, VALIDATE, id="model-not-utf8"),
    pytest.param({"model.json": b'{"version": 1' + b"0" * 5000 + b"}"}, VALIDATE,
                 id="integer-past-the-digit-limit"),
    pytest.param({"model.json": b"[" * 100000 + b"]" * 100000}, VALIDATE,
                 id="nesting-past-the-recursion-limit"),
    pytest.param({"sample.csv": not_utf8("reg2_sample.csv")},
                 ["validate", "--model", REG2, "--sample", "sample.csv"],
                 id="sample-not-utf8"),
    pytest.param({}, ["axp", "--model", REG2, "--instance", "1,1", "--from", "\u00b2"],
                 id="superscript-feature-id"),
]


@pytest.mark.parametrize("files,argv", HOSTILE_INPUTS)
def test_malformed_input_exits_2_without_a_traceback(files, argv, tmp_path, capsys):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Tree shape, table entries and warnings
# ---------------------------------------------------------------------------

def binary_tree_doc(m, nodes):
    features = [{"id": i, "name": f"x{i}", "domain": {"type": "discrete", "values": [0, 1]}}
                for i in range(1, m + 1)]
    return json.dumps({"version": 1, "kind": "tree", "features": features, "root": 1,
                       "nodes": nodes})


def chain_tree_doc(m):
    """Node i tests feature i; value 0 goes to a leaf and value 1 to node
    i + 1. A root-to-leaf path is m nodes deep."""
    nodes = [{"id": f"leaf{i}", "value": i % 2} for i in range(1, m + 2)]
    nodes += [{"id": i, "feature": i,
               "edges": [{"values": [0], "child": f"leaf{i}"},
                         {"values": [1], "child": i + 1 if i < m else f"leaf{m + 1}"}]}
              for i in range(1, m + 1)]
    return binary_tree_doc(m, nodes)


def shared_child_tree_doc(m):
    """Both edges of node i go to node i + 1: m nodes, 2^m root-to-leaf
    walks."""
    nodes = [{"id": i, "feature": i,
              "edges": [{"values": [0], "child": i + 1}, {"values": [1], "child": i + 1}]}
             for i in range(1, m)]
    nodes += [{"id": m, "feature": m, "edges": [{"values": [0], "child": "zero"},
                                                {"values": [1], "child": "one"}]},
              {"id": "zero", "value": 0}, {"id": "one", "value": 1}]
    return binary_tree_doc(m, nodes)


class TestTreeShape:
    def test_a_1200_deep_chain_validates(self, capsys, tmp_path):
        path = write(tmp_path, "chain.json", chain_tree_doc(1200))
        with cpu_limit(5):
            assert run_cli(["validate", "--model", path]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", [["validate"], ["cxp", "--instance", "1,1,2"],
                                         ["enumerate", "--kind", "axp", "--instance", "1,1,2"]])
    def test_an_edge_routing_no_value_exits_2(self, capsys, tmp_path, command):
        # No point reaches the class-7 leaf, so no point makes {1} a CXp.
        doc = json.loads((FIXTURES / "cls3_tree.json").read_text())
        doc["nodes"][0]["edges"].append({"values": [], "child": "unrouted"})
        doc["nodes"].append({"id": "unrouted", "value": 7})
        path = write(tmp_path, "empty_edge.json", json.dumps(doc))
        assert run_cli(command + ["--model", path]) == 2
        assert "an edge routes no domain value" in capsys.readouterr().err

    @pytest.mark.parametrize("m,code", [(25, 0), (200, 3)])
    def test_sampling_a_wide_trees_sufficiency_game_is_bounded(self, capsys, tmp_path,
                                                               m, code):
        # Freeing any one even feature flips the class, so the basis holds
        # m/2 singletons. At m = 200 the 1,798 permutations could make about
        # 10^8 comparisons against it, past the 2^22 guard; at m = 25, 1.3M.
        path = write(tmp_path, "chain.json", chain_tree_doc(m))
        with cpu_limit(5 if code == 0 else 1):
            assert run_cli(["shap", "--model", path, "--instance", ",".join("1" * m),
                            "--game", "waxp", "--method", "cgt"]) == code
        if code:
            assert "guarded" in capsys.readouterr().err

    @pytest.mark.parametrize("where,change", [
        ("root", lambda doc: doc.update(root=False)),  # would read as node 0
        ("child", lambda doc: doc["nodes"][0]["edges"][0].update(child=True)),  # node 1
        ("node id", lambda doc: doc["nodes"][1].pop("id")),
        ("child", lambda doc: doc["nodes"][0]["edges"][0].pop("child")),
    ], ids=["root false", "child true", "missing id", "missing child"])
    def test_a_node_id_that_is_no_number_or_string_exits_2(self, capsys, tmp_path,
                                                             where, change):
        doc = json.loads((FIXTURES / "cls3_tree.json").read_text())
        change(doc)
        path = write(tmp_path, "bad_id.json", json.dumps(doc))
        assert run_cli(["relevancy", "--model", path, "--instance", "1,1,2"]) == 2
        assert f"{where}: a node id must be a number or a string, got" \
            in capsys.readouterr().err

    def test_a_node_reached_twice_exits_2_at_once(self, capsys, tmp_path):
        path = write(tmp_path, "shared.json", shared_child_tree_doc(40))
        with cpu_limit(5):
            assert run_cli(["validate", "--model", path]) == 2
        assert "reached twice" in capsys.readouterr().err


def wide_pw2_doc(copies):
    """pw2 with feature 1 copied; each copy is free over its whole domain
    in every cell, so the model stays a valid partition."""
    doc = json.loads((FIXTURES / "pw2.json").read_text())
    source = doc["features"][0]
    for _ in range(copies):
        n = len(doc["features"]) + 1
        doc["features"].append(dict(source, id=n, name=f"dup{n}"))
        for cell in doc["cells"]:
            cell["box"].append([source["domain"]["lo"], source["domain"]["hi"]])
            cell["affine"].append(0)
    return json.dumps(doc)


TERMS = "coalition table guarded at 1048576 affine terms, got 132120576"
COALITIONS = "coalition table guarded at 1048576 coalitions, got 2097152"


class TestBoxTableGuard:
    """A box model's scan for its contrastive basis visits every cell, and
    evaluates the m terms of its affine, for each of its 2^m coalitions;
    past 2^20 affine terms the run exits 3 before the first one. Exact
    scores need a table of 2^m coalitions, refused past 2^20 first."""

    @pytest.mark.parametrize("command,message", [
        pytest.param(command, message, id=" ".join(command)) for command, message in [
            (["relevancy"], TERMS), (["enumerate", "--kind", "cxp"], TERMS),
            (["enumerate", "--kind", "axp"], TERMS), (["shap", "--game", "expected"], COALITIONS),
            (["shap", "--game", "waxp"], COALITIONS), (["compare"], COALITIONS)]])
    def test_21_features_exit_3_at_once(self, capsys, tmp_path, command, message):
        path = write(tmp_path, "wide.json", wide_pw2_doc(19))
        argv = command + ["--model", path, "--instance", ",".join(["1"] * 21),
                          "--delta", "1/5"]
        with cpu_limit(1):
            assert run_cli(argv) == 3
        assert message in capsys.readouterr().err

    def test_sampling_is_not_guarded(self, tmp_path):
        path = write(tmp_path, "wide.json", wide_pw2_doc(19))
        argv = ["shap", "--game", "expected", "--method", "cgt", "--epsilon", "1",
                "--model", path, "--instance", ",".join(["1"] * 21)]
        assert run_cli(argv) == 0


def halved_doc(m, halved):
    """m features on [0, 1] whose first ``halved`` are split at 1/2, so the
    model has 2^halved cells; its output is x1."""
    halves = [["0", "1/2"], ["1/2", "1"]]
    return json.dumps({
        "version": 1, "kind": "box_piecewise",
        "features": [{"id": j + 1, "name": f"x{j + 1}",
                      "domain": {"type": "interval", "lo": 0, "hi": 1}} for j in range(m)],
        "cells": [{"box": list(box) + [["0", "1"]] * (m - halved),
                   "affine": [0, 1] + [0] * (m - 1)}
                  for box in itertools.product(halves, repeat=halved)],
    })


class TestBoxSamplingGuard:
    """CGT on a box model scans every cell, m affine terms each, for each
    coalition it may evaluate, min(T*m + 1, 2^m) of them; past 2^20 affine
    terms the run exits 3 before the first draw."""

    @pytest.mark.parametrize("game", [["expected"], ["waxp", "--delta", "1/5"]], ids=" ".join)
    def test_512_cells_on_12_features_exit_3_at_once(self, capsys, tmp_path, game):
        path = write(tmp_path, "halved.json", halved_doc(12, 9))
        argv = ["shap", "--method", "cgt", "--game", *game, "--model", path,
                "--instance", ",".join(["1/4"] * 12)]
        with cpu_limit(1):
            assert run_cli(argv) == 3
        assert "sampling guarded at 1048576 affine terms, got 25165824" in \
            capsys.readouterr().err

    def test_the_same_model_passes_a_shorter_run(self, capsys, tmp_path):
        # epsilon 1 needs 4 permutations: 49 coalitions, 301,056 affine terms.
        path = write(tmp_path, "halved.json", halved_doc(12, 9))
        argv = ["shap", "--method", "cgt", "--game", "expected", "--epsilon", "1",
                "--model", path, "--instance", ",".join(["1/4"] * 12), "--output", "json"]
        assert run_cli(argv) == 0
        scores = json.loads(capsys.readouterr().out)["results"]["scores"]
        assert [row["score"] for row in scores][1:] == ["0"] * 11  # x2..x12 are null


def test_an_out_of_domain_table_point_names_the_file_and_the_entry(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(mutated("reg2.json", ("table", 1, "point"), [0, 5]))
    assert run_cli(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: table entry 1: value Fraction(5, 1) outside domain of "
        "feature 2 (x2)\n")


def test_a_constant_universe_warns_once_on_stderr(capsys, tmp_path):
    sample = write(tmp_path, "ones.csv", "x1,x2\n1,1\n")
    argv = ["--model", REG2, "--instance", "1,1", "--agnostic", "--sample", sample]
    warning = ("warning: model output is constant on the universe: no contrastive "
               "explanations exist\n")
    assert run_cli(["enumerate", "--kind", "cxp"] + argv) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    assert "minimal cxp sets (0):" in captured.out
    # With no CXp the empty set is the one minimal AXp, as `axp` reports.
    assert run_cli(["enumerate", "--kind", "axp"] + argv) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    assert "minimal axp sets (1):\n  {}\n" in captured.out
    # The empty set reads `{}` in every table, as `relevancy` writes it.
    assert run_cli(["axp"] + argv) == 0
    assert "abductive explanation: {}\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv,digest", [
    (["--model", "pw2.json", "--instance", "1,1", "--delta", "100"],
     "b3ae21ae2c17315e499e6033248e9fc0bf78a0541109189feff778f4b1b63621"),
    (["--model", "reg2.json", "--instance", "1,1", "--agnostic", "--sample", "ones.csv"],
     "83fb30a547585a9d1f6d4513c5f233ad47d8c0505227b7b7da0a1fdcd5b96101"),
], ids=["pw2-delta-100", "constant-sample"])
def test_with_no_cxp_enumerate_reports_the_empty_axp(capsys, tmp_path, monkeypatch, argv, digest):
    for name in ("pw2.json", "reg2.json"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    write(tmp_path, "ones.csv", "x1,x2\n1,1\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli(["enumerate", "--kind", "axp", "--output", "json"] + argv) == 0
    out, err = capsys.readouterr()
    assert err == ("warning: model output is constant on the universe: no contrastive "
                   "explanations exist\n")
    assert json.loads(out)["results"] == {"kind": "axp", "sets": [[]]}
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEntryPoint:
    """``python -m shapxp.cli`` in a fresh interpreter."""

    def run_module(self, *argv):
        env = dict(os.environ)
        src = str(FIXTURES.parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, "-m", "shapxp.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_validate_exits_0(self):
        done = self.run_module("validate", "--model", CLS3)
        assert done.returncode == 0, done.stderr
        assert "ok: model valid" in done.stdout

    def test_missing_model_exits_2_without_a_traceback(self):
        done = self.run_module("validate", "--model", "no/such/file.json")
        assert done.returncode == 2
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr


class TestCollectorPause:
    """run_cli pauses the cyclic garbage collector for the run and leaves
    the caller's collector as it found it, however the run ends."""

    @pytest.mark.parametrize("argv,code", [
        (["validate", "--model", CLS3], 0),
        (["validate", "--model", "no/such/file.json"], 2),
        (["shap", "--model", CLS3, "--instance", "1,1,2", "--game", "waxp",
          "--method", "cgt", "--epsilon", "1/100000"], 3),
        (["shap", "--model", CLS3, "--frobnicate"], "exit 2"),
        (["--help"], "exit 0"),
    ], ids=["exit 0", "exit 2", "exit 3", "rejected", "help"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_the_callers_state_is_restored(self, capsys, argv, code, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if isinstance(code, str):  # argparse exits
                with pytest.raises(SystemExit) as exc:
                    run_cli(argv)
                assert exc.value.code == int(code[-1])
            else:
                assert run_cli(argv) == code
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()

    def test_no_collection_runs_while_a_table_loads(self, capsys, tmp_path):
        # 4,096 entries, each a dict and a list, allocate enough containers
        # to start several young collections with the collector on.
        features = [{"id": i, "name": f"x{i}", "domain": {"type": "discrete",
                                                          "values": [0, 1]}}
                    for i in range(1, 13)]
        table = [{"point": list(point), "value": sum(point) % 4}
                 for point in itertools.product((0, 1), repeat=12)]
        path = write(tmp_path, "table.json", json.dumps(
            {"version": 1, "kind": "tabular", "features": features, "table": table}))
        started = []

        def hook(phase, info):
            if phase == "start":
                started.append(info["generation"])

        was = gc.isenabled()
        gc.enable()
        gc.callbacks.append(hook)
        try:
            assert run_cli(["validate", "--model", path]) == 0
        finally:
            gc.callbacks.remove(hook)
            (gc.enable if was else gc.disable)()
        assert started == []
        assert "(4096 points)" in capsys.readouterr().out


ROOT = FIXTURES.parent.parent
DIGESTS = runpy.run_path(str(ROOT / "bench" / "fixture_digests.py"))["DIGESTS"]
# The command behind each report in bench/fixture_digests.py, run from the
# checkout's root (a report quotes the model path as given).
FIXTURE_COMMANDS = {
    "cls3.cgt_fixed_seed": ("shap --model docs/fixtures/cls3.json --instance 1,1,2 --game "
                            "waxp --method cgt --epsilon 1/100 --seed 7"),
    "cls3.compare": "compare --model docs/fixtures/cls3.json --instance 1,1,2 --instance 0,1,1",
    "cls3.expected": "shap --model docs/fixtures/cls3.json --instance 1,1,2 --game expected",
    "cls3.relevancy": "relevancy --model docs/fixtures/cls3.json --instance 1,1,2",
    "cls3.waxp": "shap --model docs/fixtures/cls3.json --instance 1,1,2 --game waxp",
    "cls3_tree.compare": ("compare --model docs/fixtures/cls3_tree.json --instance 1,1,2 "
                          "--instance 0,1,1"),
    "cls3_tree.expected": ("shap --model docs/fixtures/cls3_tree.json --instance 1,1,2 --game "
                           "expected"),
    "cls3_tree.relevancy": "relevancy --model docs/fixtures/cls3_tree.json --instance 1,1,2",
    "cls3_tree.waxp": "shap --model docs/fixtures/cls3_tree.json --instance 1,1,2 --game waxp",
    "pw2.cgt_fixed_seed": ("shap --model docs/fixtures/pw2.json --instance 1,1 --delta 1/5 "
                           "--game waxp --method cgt --epsilon 1/100 --seed 7"),
    "pw2.enumerate_axp": ("enumerate --model docs/fixtures/pw2.json --instance 1,1 --delta "
                          "1/5 --kind axp"),
    "pw2.relevancy": "relevancy --model docs/fixtures/pw2.json --instance 1,1 --delta 1/5",
    "pw2.shap_expected": "shap --model docs/fixtures/pw2.json --instance 1,1 --game expected",
    "pw2.shap_waxp": "shap --model docs/fixtures/pw2.json --instance 1,1 --delta 1/5 --game waxp",
    "pw2.validate": "validate --model docs/fixtures/pw2.json",
    "reg2.agnostic.axp": ("axp --model docs/fixtures/reg2.json --instance 1,1 --agnostic "
                          "--sample docs/fixtures/reg2_sample.csv"),
    "reg2.agnostic.cxp": ("cxp --model docs/fixtures/reg2.json --instance 1,1 --agnostic "
                          "--sample docs/fixtures/reg2_sample.csv"),
    "reg2.agnostic.enumerate_axp": ("enumerate --model docs/fixtures/reg2.json --instance 1,1 "
                                    "--agnostic --sample docs/fixtures/reg2_sample.csv --kind "
                                    "axp"),
    "reg2.agnostic.enumerate_cxp": ("enumerate --model docs/fixtures/reg2.json --instance 1,1 "
                                    "--agnostic --sample docs/fixtures/reg2_sample.csv --kind "
                                    "cxp"),
    "reg2.agnostic.relevancy": ("relevancy --model docs/fixtures/reg2.json --instance 1,1 "
                                "--agnostic --sample docs/fixtures/reg2_sample.csv"),
    "reg2.axp": "axp --model docs/fixtures/reg2.json --instance 1,1",
    "reg2.cxp": "cxp --model docs/fixtures/reg2.json --instance 1,1",
    "reg2.enumerate_axp": "enumerate --model docs/fixtures/reg2.json --instance 1,1 --kind axp",
    "reg2.enumerate_cxp": "enumerate --model docs/fixtures/reg2.json --instance 1,1 --kind cxp",
    "reg2.relevancy": "relevancy --model docs/fixtures/reg2.json --instance 1,1",
    "reg2_tree.axp": "axp --model docs/fixtures/reg2_tree.json --instance 1,1",
    "reg2_tree.cxp": "cxp --model docs/fixtures/reg2_tree.json --instance 1,1",
    "reg2_tree.enumerate_axp": ("enumerate --model docs/fixtures/reg2_tree.json --instance "
                                "1,1 --kind axp"),
    "reg2_tree.enumerate_cxp": ("enumerate --model docs/fixtures/reg2_tree.json --instance "
                                "1,1 --kind cxp"),
    "reg2_tree.relevancy": "relevancy --model docs/fixtures/reg2_tree.json --instance 1,1",
}


class TestReportStability:
    def test_identical_invocations_are_byte_identical(self, capsys):
        argv = ["shap", "--model", PW2, "--instance", "1,1", "--game", "waxp",
                "--delta", "1/5", "--method", "cgt", "--seed", "9",
                "--output", "json"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_report_round_trip(self, capsys):
        argv = ["compare", "--model", CLS3, "--instance", "1,1,2",
                "--output", "json"]
        assert run_cli(argv) == 0
        text = capsys.readouterr().out
        assert RunReport(json.loads(text)).to_json() == text

    def test_round_trip_preserves_timing_when_included(self):
        report = RunReport(command="shap", model={"path": "m.json"}, results={"x": "1/2"})
        again = json.loads(report.to_json(12.5))
        assert again.pop("timing_ms") == 12.5
        assert RunReport(again) == report

    def test_default_json_omits_timing(self):
        report = RunReport(command="shap", model={"path": "m.json"}, results={"x": "1/2"})
        assert "timing" not in report.to_json()
        assert "timing" not in report.to_json(None)
        assert '"timing_ms": 0.0' in report.to_json(0.0)

    def test_every_fixture_report_is_named(self):
        assert sorted(FIXTURE_COMMANDS) == sorted(DIGESTS)

    @pytest.mark.parametrize("name", sorted(FIXTURE_COMMANDS))
    def test_fixture_reports_keep_their_digests_and_round_trip(self, capsys, monkeypatch,
                                                               name):
        monkeypatch.chdir(ROOT)  # the reports quote the model's path as given
        assert run_cli(FIXTURE_COMMANDS[name].split() + ["--output", "json"]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
        doc = json.loads(text)
        assert sorted(doc) == ["command", "diagnostics", "instance", "model", "results",
                               "similarity", "universe"]
        assert RunReport(doc).to_json() == text
