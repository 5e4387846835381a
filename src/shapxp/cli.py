"""Command-line surface tying the attribution and explanation machinery
together.

Subcommands: validate, relevancy, axp, cxp, enumerate, shap, compare.
Exit codes: 0 on success, 2 on validation errors (bad files, bad flags,
out-of-domain instances), 3 on computation errors (size guards, numeric
requirements, failed preconditions).
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
import time
import warnings
from functools import cache
from fractions import Fraction

from . import cgt as cgt_mod
from .errors import DomainError, ShapxpError, SizeLimitError, ValidationError
from .explanations import (
    ConstantOnUniverseWarning,
    ExplanationProblem,
    agnostic_support,
    axps_from_cxps,  # noqa: F401  (looked up here by the benchmark's tracer)
    enumerate_axps,
    enumerate_cxps,
    extract_axp,
    extract_cxp,
    relevant_features,
)
from .games import (
    EXPECTED_VALUE,
    WAXP_BASED,
    check_compliance,
    expected_game,
    shapley_exact,
    waxp_game,
)
from .models import make_instance
from .modelio import (
    RunReport,
    format_value,
    load_model,
    load_sample,
    parse_rational,
    rational_str,
    read_point,
)
from .ranking import (
    DEFAULT_DEPTH,
    DEFAULT_PERSISTENCE,
    compare_scores,
    rank_features,
    summarize_comparisons,
)
from .similarity import SimilarityConfig

SIGMA_COMMANDS = {"relevancy", "axp", "cxp", "enumerate", "compare"}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="shapxp",
        description="Feature attribution scores and formal explanations for small models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_instance=True):
        p.add_argument("--model", required=True, help="JSON model file")
        if with_instance:
            p.add_argument("--instance", action="append", default=None,
                           help="comma-separated feature values of the target point")
            p.add_argument("--delta", default=None,
                           help="output tolerance for threshold similarity (rational)")
            p.add_argument("--agnostic", action="store_true",
                           help="quantify over a sample instead of the feature space")
        p.add_argument("--sample", default=None, help="delimiter-separated sample file")
        p.add_argument("--output", choices=("table", "json"), default="table")
        p.add_argument("--with-timing", action="store_true",
                       help="include timing in JSON output (breaks byte-stability)")

    common(sub.add_parser("validate", help="check a model (and optional sample) file"),
           with_instance=False)
    common(sub.add_parser("relevancy", help="features occurring in some explanation"))
    common(p_axp := sub.add_parser("axp", help="one minimal abductive explanation"))
    common(p_cxp := sub.add_parser("cxp", help="one minimal contrastive explanation"))
    for p in (p_axp, p_cxp):
        p.add_argument("--from", dest="seed_features", default=None,
                       help="comma-separated feature ids to shrink (default: all)")
    p_enum = sub.add_parser("enumerate", help="all minimal explanations of one kind")
    common(p_enum)
    p_enum.add_argument("--kind", choices=("axp", "cxp"), required=True)
    p_shap = sub.add_parser("shap", help="per-feature attribution scores")
    common(p_shap)
    p_shap.add_argument("--game", choices=(EXPECTED_VALUE, WAXP_BASED), required=True)
    p_shap.add_argument("--method", choices=("exact", "cgt"), default="exact")
    p_shap.add_argument("--epsilon", default="1/20", help="cgt additive error bound")
    p_shap.add_argument("--alpha", default="1/20", help="cgt failure probability")
    p_shap.add_argument("--seed", type=int, default=0, help="cgt RNG seed")
    p_cmp = sub.add_parser("compare",
                           help="rank-overlap of expected-value vs sufficiency scores")
    common(p_cmp)
    p_cmp.add_argument("--persistence", default=str(DEFAULT_PERSISTENCE),
                       help="top-weighting parameter in (0,1)")
    p_cmp.add_argument("--depth", type=int, default=DEFAULT_DEPTH, help="evaluation depth")
    p_cmp.add_argument("--abs", action="store_true",
                       help="table output shows only the absolute-value variant")
    return parser


def run_cli(argv) -> int:
    """Run one command line and return its exit code: 0 on success, 2 on
    a validation error, 3 on a computation error; argparse raises
    SystemExit for a rejected command line or ``--help``. The report goes
    to stdout, warnings and errors to stderr.

    The cyclic garbage collector is paused for the run: loading and
    explaining allocate many containers, each of which counts towards its
    next pass, but leave little cyclic garbage for a pass to free. The
    caller's collector state is restored however the run ends, and a
    disabled collector is never enabled; what cyclic garbage a run leaves,
    the caller's next collection frees."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConstantOnUniverseWarning)
            try:
                started = time.perf_counter()
                report = _dispatch(args)
                elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
                # Rendered before anything is written, so a value that cannot
                # be shown exits 3 with no partial report.
                if args.output == "json":
                    outcome = report.to_json(elapsed_ms if args.with_timing else None)
                else:
                    outcome = _table(report, elapsed_ms)
                code = 0
            except (ValidationError, DomainError, OSError) as exc:
                outcome, code = exc, 2
            except ShapxpError as exc:
                outcome, code = exc, 3
        for message in dict.fromkeys(str(w.message) for w in caught):  # each one once
            print(f"warning: {message}", file=sys.stderr)
        if code:
            print(f"error: {outcome}", file=sys.stderr)
        else:
            sys.stdout.write(outcome)
        return code
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _dispatch(args) -> RunReport:
    model = load_model(args.model)
    report = RunReport(command=args.command, instance=None, similarity=None,
                       universe=None, results=None, diagnostics=None)
    report["model"] = {
        "path": str(args.model),
        "kind": type(model).__name__,
        "value_kind": model.value_kind,
        "m": model.space.m,
        "features": [f.name for f in model.space.features],
    }
    if args.command == "validate":
        results = report["results"] = {"ok": True}
        if model.space.all_discrete():
            results["points"] = model.space.size
        else:
            results["cells"] = len(model.affines[0])  # one intercept per cell
        if args.sample:
            results["sample_rows"] = len(load_sample(args.sample, model))
        return report

    instances = _parse_instances(args, model)
    similarity = _similarity_for(args, model)
    universe, report["universe"] = _universe_for(args, model)
    report["similarity"] = {"mode": similarity.mode}
    if similarity.delta is not None:
        report["similarity"]["delta"] = rational_str(similarity.delta)

    if args.command == "compare":
        report["results"] = _run_compare(args, model, instances, similarity, universe)
        return report

    if len(instances) != 1:
        raise ValidationError(f"'{args.command}' takes exactly one --instance")
    problem = ExplanationProblem(model, instances[0], similarity, universe)
    report["instance"] = {
        "point": [format_value(x) for x in problem.instance.point],
        "prediction": format_value(problem.instance.prediction),
    }

    if args.command == "relevancy":
        relevant = relevant_features(problem)
        results = {
            "relevant": list(relevant),
            "per_feature": [{"feature": i, "relevant": i in relevant}
                            for i in problem.feature_ids],
        }
    elif args.command in ("axp", "cxp"):
        seed = _parse_feature_ids(args.seed_features, model) \
            if args.seed_features is not None else None
        if args.command == "axp":
            found = extract_axp(problem, seed)
        else:
            found = extract_cxp(problem, seed)
        results = {args.command: list(found)}
        if universe is not None and args.command == "axp":
            support = agnostic_support(problem, found)
            results["sample_support"] = support
            results["vacuous"] = support == 0
    elif args.command == "enumerate":
        sets = enumerate_cxps(problem) if args.kind == "cxp" else enumerate_axps(problem)
        results = {"kind": args.kind, "sets": [list(s) for s in sets]}
    elif args.command == "shap":
        results, report["diagnostics"] = _run_shap(args, problem)
    else:  # pragma: no cover - argparse restricts the choices
        raise ValidationError(f"unknown subcommand {args.command!r}")
    report["results"] = results
    return report


def _run_shap(args, problem):
    game = expected_game(problem) if args.game == EXPECTED_VALUE else waxp_game(problem)
    diagnostics = None
    compliance = None
    if args.method == "exact":
        vector = shapley_exact(game)
        # Zero-vs-nonzero compliance is only meaningful for exact scores,
        # and needs a usable similarity predicate (delta on box models).
        if problem.model.space.all_discrete() or problem.similarity.delta is not None:
            report = check_compliance(problem, vector)
            compliance = {
                "violations": list(report.violations),
                "compliant": report.compliant,
                "per_feature": [
                    {"feature": e.feature, "relevant": e.relevant,
                     "score": rational_str(e.score), "misleading": e.misleading}
                    for e in report.entries
                ],
            }
    else:
        config = cgt_mod.CgtConfig(
            epsilon=parse_rational(args.epsilon, "--epsilon"),
            alpha=parse_rational(args.alpha, "--alpha"),
            seed=args.seed,
        )
        vector, diag = cgt_mod.cgt_estimate(game, config)
        diagnostics = {
            "permutations": diag.permutations,
            "marginal_bound": rational_str(diag.marginal_bound),
            "epsilon": rational_str(config.epsilon),
            "alpha": rational_str(config.alpha),
            "seed": config.seed,
        }
    names = [f.name for f in problem.model.space.features]
    results = {
        "game": vector.game,
        "method": vector.method,
        "scores": [
            {"feature": i, "name": names[i - 1], "score": rational_str(vector.score(i))}
            for i in problem.feature_ids
        ],
        "sum": rational_str(vector.total()),
        "ranking_signed": list(rank_features(vector, "signed").order),
        "ranking_absolute": list(rank_features(vector, "absolute").order),
    }
    if compliance is not None:
        results["compliance"] = compliance
    return results, diagnostics


def _run_compare(args, model, instances, similarity, universe):
    persistence = parse_rational(args.persistence, "--persistence")
    reports = []
    per_instance = []
    for instance in instances:
        problem = ExplanationProblem(model, instance, similarity, universe)
        vectors = {
            "expected:exact": shapley_exact(expected_game(problem)),
            "waxp:exact": shapley_exact(waxp_game(problem)),
        }
        comparison = compare_scores(vectors, persistence, args.depth)
        reports.append(comparison)
        per_instance.append({
            "point": [format_value(x) for x in instance.point],
            "prediction": format_value(instance.prediction),
            "scores": {name: [rational_str(s) for s in vec.scores]
                       for name, vec in vectors.items()},
            "rankings": {name: {mode: list(order) for mode, order in modes.items()}
                         for name, modes in comparison.rankings.items()},
            "rbo": [
                {"a": pair.method_a, "b": pair.method_b,
                 "signed": rational_str(pair.signed),
                 "absolute": rational_str(pair.absolute)}
                for pair in comparison.pairs
            ],
        })
    summary = summarize_comparisons(reports)
    return {
        "persistence": rational_str(persistence),
        "depth": args.depth,
        "max_rbo": rational_str(1 - Fraction(persistence) ** args.depth),
        "instances": per_instance,
        "summary": [
            {"a": row.method_a, "b": row.method_b, "mode": row.mode,
             "min": rational_str(row.minimum), "max": rational_str(row.maximum),
             "mean": rational_str(row.mean)}
            for row in summary
        ],
        "absolute_only": bool(args.abs),
    }


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------

def _parse_instances(args, model):
    if not args.instance:
        raise ValidationError(f"'{args.command}' needs --instance")
    instances = []
    for text in args.instance:
        tokens = [t.strip() for t in text.split(",")]
        if len(tokens) != model.space.m:
            raise ValidationError(
                f"--instance {text!r}: expected {model.space.m} values")
        instances.append(make_instance(model, read_point(model.space, tokens, "--instance")))
    return instances


def _similarity_for(args, model) -> SimilarityConfig:
    if args.delta is not None:
        return SimilarityConfig.threshold(parse_rational(args.delta, "--delta"))
    needs_sigma = args.command in SIGMA_COMMANDS or (
        args.command == "shap" and args.game == WAXP_BASED)
    if needs_sigma and not model.space.all_discrete():
        raise ValidationError(
            "regression problems over interval domains need --delta")
    return SimilarityConfig.class_equality()


def _universe_for(args, model):
    if not args.agnostic:
        if args.sample:
            raise ValidationError("--sample takes effect only with --agnostic")
        return None, {"kind": "model_aware"}
    if not args.sample:
        raise ValidationError("--agnostic needs --sample")
    sample = load_sample(args.sample, model)
    info = {"kind": "model_agnostic", "sample": str(args.sample), "rows": len(sample)}
    return sample, info


def _parse_feature_ids(text, model):
    ids = []
    for token in text.split(","):
        token = token.strip()
        if not token.isdecimal() or int(token) not in model.space.ids:
            raise ValidationError(f"--from: {token!r} is not a feature id")
        ids.append(int(token))
    return ids


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------

def _decimal(text: str) -> str:
    try:
        return f"{float(Fraction(text)):.6f}"
    except OverflowError:
        raise SizeLimitError(f"{text[:20]}... is too large for a float in table "
                             "output; --output json reports it") from None


def _table(report: RunReport, elapsed_ms: float) -> str:
    out = io.StringIO()
    command, model, res = report["command"], report["model"], report["results"]
    instance, universe = report["instance"], report["universe"]
    print(f"model: {model['path']} ({model['kind']}, {model['value_kind']}, "
          f"m={model['m']})", file=out)
    if instance:
        point = ",".join(str(x) for x in instance["point"])
        print(f"instance: ({point}) -> {instance['prediction']}", file=out)
    if universe and universe["kind"] == "model_agnostic":
        print(f"universe: sample {universe['sample']} ({universe['rows']} rows)", file=out)
    if command == "validate":
        size = res.get("points", res.get("cells"))
        unit = "points" if "points" in res else "cells"
        print(f"ok: model valid ({size} {unit})", file=out)
        if "sample_rows" in res:
            print(f"ok: sample valid ({res['sample_rows']} rows)", file=out)
    elif command == "relevancy":
        for row in res["per_feature"]:
            mark = "relevant" if row["relevant"] else "irrelevant"
            print(f"  feature {row['feature']}: {mark}", file=out)
        print(f"relevant set: {set(res['relevant']) or '{}'}", file=out)
    elif command in ("axp", "cxp"):
        label = "abductive" if command == "axp" else "contrastive"
        print(f"{label} explanation: {set(res[command]) or '{}'}", file=out)
        if res.get("vacuous"):
            print("warning: no sample row matches the fixed features; the check "
                  "is vacuous", file=out)
    elif command == "enumerate":
        print(f"minimal {res['kind']} sets ({len(res['sets'])}):", file=out)
        for s in res["sets"]:
            print(f"  {set(s) or '{}'}", file=out)
    elif command == "shap":
        print(f"game: {res['game']}   method: {res['method']}", file=out)
        print("feature  name        score         (exact)", file=out)
        for row in res["scores"]:
            print(f"{row['feature']:>7}  {row['name']:<10}  "
                  f"{_decimal(row['score']):>12}  {row['score']}", file=out)
        print(f"sum: {_decimal(res['sum'])} ({res['sum']})", file=out)
        print(f"ranking (signed):   {res['ranking_signed']}", file=out)
        print(f"ranking (absolute): {res['ranking_absolute']}", file=out)
        if "compliance" in res:
            comp = res["compliance"]
            if comp["compliant"]:
                print("compliance: scores are zero exactly on irrelevant features",
                      file=out)
            else:
                print(f"compliance: MISLEADING on features {comp['violations']}",
                      file=out)
        if d := report["diagnostics"]:
            print(f"cgt: {d['permutations']} permutations, bound {d['marginal_bound']}, "
                  f"epsilon {d['epsilon']}, alpha {d['alpha']}, seed {d['seed']}", file=out)
    elif command == "compare":
        print(f"persistence {res['persistence']}, depth {res['depth']}, "
              f"max attainable rbo {_decimal(res['max_rbo'])}", file=out)
        modes = ("absolute",) if res["absolute_only"] else ("signed", "absolute")
        for entry in res["instances"]:
            point = ",".join(str(x) for x in entry["point"])
            print(f"instance ({point}):", file=out)
            for name, ranking in entry["rankings"].items():
                print(f"  {name:<16} signed {ranking['signed']}  "
                      f"absolute {ranking['absolute']}", file=out)
            for pair in entry["rbo"]:
                for mode in modes:
                    print(f"  rbo[{mode}] {pair['a']} vs {pair['b']}: "
                          f"{_decimal(pair[mode])} ({pair[mode]})", file=out)
        print("summary over batch:", file=out)
        for row in res["summary"]:
            if row["mode"] in modes:
                print(f"  {row['a']} vs {row['b']} [{row['mode']}]: "
                      f"min {_decimal(row['min'])}  max {_decimal(row['max'])}  "
                      f"mean {_decimal(row['mean'])}", file=out)
    print(f"time: {elapsed_ms:.1f} ms", file=out)
    return out.getvalue()


if __name__ == "__main__":
    main()
