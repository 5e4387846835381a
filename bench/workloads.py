"""Workload plans: seeded lists of shapxp CLI invocations over generated
files, each with the checks its output must pass.

A plan is one round of invocations. ``check`` callbacks verify one report
against the benchmark's own oracle (see gen.py); group checks compare the
reports of several invocations on the same model and instance. Every
invocation asks for ``--output json`` so that reports can be parsed and
compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import gen
from fixture_digests import DIGESTS

FIXTURES = Path("docs/fixtures")
BOX_DELTA = Fraction(1, 2)
CGT_ALPHA = Fraction(1, 20)

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "exact_discrete": "exact 2^m coalition tables on tabular and tree models: "
                      "models, games and similarity do the work",
    "cgt_sampling": "seeded permutation sampling: T*m draws dominate and "
                    "coalition values are cache hits",
    "box_piecewise": "continuous box models: the partition check in load_model "
                     "dominates on guillotine layouts",
    "explain_lattice": "pruned CXp scan, hitting-set duality and sample loading; "
                       "no full coalition table",
}


class CheckFailed(Exception):
    """An output broke an invariant the benchmark computed itself."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Invocation:
    name: str
    argv: list
    check: Optional[Callable[[dict, str], None]] = None


@dataclass
class Plan:
    invocations: list = field(default_factory=list)
    group_checks: list = field(default_factory=list)  # (names, fn(outputs))

    def add(self, name, argv, check=None):
        self.invocations.append(Invocation(name, list(argv) + ["--output", "json"], check))
        return name

    def group(self, names, fn):
        self.group_checks.append((tuple(names), fn))


def _point_text(point):
    return ",".join(str(Fraction(x)) for x in point)


def _scores(report_results):
    return [Fraction(row["score"]) for row in report_results["scores"]]


def _nonzero(scores):
    return {i + 1 for i, s in enumerate(scores) if s != 0}


def _waxp_empty(oracle, prediction, delta):
    """nu(empty set) of the sufficiency game: 1 iff every output is
    indistinguishable from the prediction."""
    lo, hi = oracle.output_range()
    if delta is None:
        return int(lo == hi == prediction)
    return int(prediction - delta <= lo and hi <= prediction + delta)


def check_prediction(report, oracle, point):
    got = Fraction(report["instance"]["prediction"])
    expect(got == oracle.predict(point),
           f"prediction {got} at {point}, oracle says {oracle.predict(point)}")


def check_shap(oracle, point, game, delta=None):
    """Efficiency (scores sum to nu(N) - nu(empty)), null players for the
    features the model ignores, and compliance of exact sufficiency scores."""
    def check(report, text):
        check_prediction(report, oracle, point)
        res = report["results"]
        scores = _scores(res)
        pred = oracle.predict(point)
        if game == "expected":
            total = pred - oracle.mean()
        else:
            total = 1 - _waxp_empty(oracle, pred, delta)
        expect(sum(scores) == total == Fraction(res["sum"]),
               f"{game} scores sum to {sum(scores)}, expected {total}")
        for i in oracle.irrelevant:
            expect(scores[i - 1] == 0, f"ignored feature {i} scores {scores[i - 1]}")
        if game == "waxp" and res["method"] == "exact":
            expect(res["compliance"]["compliant"],
                   f"sufficiency scores not compliant: {res['compliance']['violations']}")
    return check


def check_relevancy(oracle, point, model_aware=True):
    def check(report, text):
        check_prediction(report, oracle, point)
        relevant = set(report["results"]["relevant"])
        if model_aware:
            expect(not relevant & oracle.irrelevant,
                   f"ignored features {sorted(relevant & oracle.irrelevant)} reported relevant")
    return check


def check_digest(name):
    def check(report, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        expect(digest == DIGESTS[name], f"fixture report {name} changed: {digest}")
    return check


def both(*checks):
    def check(report, text):
        for c in checks:
            c(report, text)
    return check


# ---------------------------------------------------------------------------
# Group checks
# ---------------------------------------------------------------------------

def same_results(a, b):
    def fn(out):
        expect(out[a][0]["results"] == out[b][0]["results"],
               f"{a} and {b} disagree")
    return fn


def waxp_matches_relevancy(waxp, relevancy):
    """Sufficiency scores are nonzero exactly on the relevant features."""
    def fn(out):
        nonzero = _nonzero(_scores(out[waxp][0]["results"]))
        relevant = set(out[relevancy][0]["results"]["relevant"])
        expect(nonzero == relevant, f"nonzero waxp scores {sorted(nonzero)} "
                                    f"!= relevant {sorted(relevant)}")
    return fn


def compare_matches_shap(compare, expected, waxp):
    """compare's first instance repeats the single-instance shap runs."""
    def fn(out):
        first = out[compare][0]["results"]["instances"][0]["scores"]
        for key, name in (("expected:exact", expected), ("waxp:exact", waxp)):
            want = [row["score"] for row in out[name][0]["results"]["scores"]]
            expect([str(Fraction(s)) for s in first[key]] == want,
                   f"compare {key} scores differ from {name}")
    return fn


def explanation_duality(relevancy, axp, cxp, enum_axp, enum_cxp):
    """Relevancy is the union of the AXps and of the CXps; single
    extractions are members of the enumerated families; every AXp hits
    every CXp."""
    def fn(out):
        relevant = set(out[relevancy][0]["results"]["relevant"])
        axps = [frozenset(s) for s in out[enum_axp][0]["results"]["sets"]]
        cxps = [frozenset(s) for s in out[enum_cxp][0]["results"]["sets"]]
        expect(set().union(*axps) == relevant == set().union(*cxps),
               "relevancy differs from the union of AXps or of CXps")
        expect(frozenset(out[axp][0]["results"]["axp"]) in axps, "axp not enumerated")
        expect(frozenset(out[cxp][0]["results"]["cxp"]) in cxps, "cxp not enumerated")
        expect(all(a & c for a in axps for c in cxps), "an AXp misses a CXp")
    return fn


def box_duality(relevancy, enum_axp, waxp):
    def fn(out):
        relevant = set(out[relevancy][0]["results"]["relevant"])
        axps = [set(s) for s in out[enum_axp][0]["results"]["sets"]]
        expect(set().union(*axps) == relevant, "relevancy differs from the AXp union")
        waxp_matches_relevancy(waxp, relevancy)(out)
    return fn


def check_compare(oracle, points):
    def check(report, text):
        res = report["results"]
        mean = oracle.mean()
        max_rbo = Fraction(res["max_rbo"])
        for point, entry in zip(points, res["instances"]):
            pred = oracle.predict(point)
            expect(Fraction(entry["prediction"]) == pred, f"compare prediction at {point}")
            expected = [Fraction(s) for s in entry["scores"]["expected:exact"]]
            waxp = [Fraction(s) for s in entry["scores"]["waxp:exact"]]
            expect(sum(expected) == pred - mean, "compare expected scores break efficiency")
            expect(sum(waxp) == 1 - _waxp_empty(oracle, pred, None),
                   "compare waxp scores break efficiency")
            for i in oracle.irrelevant:
                expect(expected[i - 1] == 0 == waxp[i - 1], f"ignored feature {i} scored")
            for pair in entry["rbo"]:
                for mode in ("signed", "absolute"):
                    expect(0 <= Fraction(pair[mode]) <= max_rbo, "rbo out of range")
    return check


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

class _Files:
    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def model(self, name, doc):
        return gen.write_json(self.dir / f"{name}.json", doc)

    def text(self, name, content):
        path = self.dir / name
        path.write_text(content, encoding="utf-8")
        return str(path)


def fixture(name):
    path = FIXTURES / name
    return str(path), gen.Oracle(json.loads(path.read_text(encoding="utf-8")))


ALL_DISCRETE = ("expected", "waxp", "relevancy", "compare")
NO_COMPARE = ("expected", "waxp", "relevancy")
NO_EXPECTED = ("waxp", "relevancy")


def _discrete_commands(plan, tag, path, oracle, points, commands=ALL_DISCRETE,
                       digest=False):
    """Some of: shap (both games), relevancy and a two-instance compare on
    one model; returns the invocation names keyed by command."""
    inst = ["--model", path, "--instance", _point_text(points[0])]
    argv = {
        "expected": (["shap", *inst, "--game", "expected"],
                     check_shap(oracle, points[0], "expected")),
        "waxp": (["shap", *inst, "--game", "waxp"], check_shap(oracle, points[0], "waxp")),
        "relevancy": (["relevancy", *inst], check_relevancy(oracle, points[0])),
        "compare": (["compare", *inst, "--instance", _point_text(points[-1])],
                    check_compare(oracle, points)),
    }
    names = {}
    for cmd in commands:
        args, check = argv[cmd]
        name = f"{tag}.{cmd}"
        names[cmd] = plan.add(name, args, both(check, check_digest(name)) if digest else check)
    if "waxp" in names and "relevancy" in names:
        plan.group([names["waxp"], names["relevancy"]],
                   waxp_matches_relevancy(names["waxp"], names["relevancy"]))
    if "compare" in names:
        plan.group([names["compare"], names["expected"], names["waxp"]],
                   compare_matches_shap(names["compare"], names["expected"], names["waxp"]))
    return names


def exact_discrete(rng, files):
    # Compare runs both exact games on two instances, so it stays on the
    # models whose expected-value table takes well under a second.
    plan = Plan()
    for name in ("cls3", "cls3_tree"):
        path, oracle = fixture(f"{name}.json")
        _discrete_commands(plan, name, path, oracle, [(1, 1, 2), (0, 1, 1)], digest=True)
    # The expected game on a table costs the same at every instance, so
    # extra instances on the ternary tables make bands of like invocations
    # that latency_p50_ms (m=5) and latency_tail_ms (m=6) fall in, and
    # neither varies much from seed to seed. The expected game at m=10, on
    # m=9 trees and compare on trees took 0.3-2 s each and left room for
    # too few rounds.
    for tag, m, arity, commands, extra in (("tab8", 8, 2, ALL_DISCRETE, 0),
                                           ("tab9", 9, 2, NO_COMPARE, 0),
                                           ("tab10", 10, 2, NO_EXPECTED, 0),
                                           ("ternary5", 5, 3, ALL_DISCRETE, 13),
                                           ("ternary6", 6, 3, NO_COMPARE, 6)):
        doc, oracle = gen.tabular(rng, m, arity, 1)
        points = [gen.discrete_instance(rng, oracle) for _ in range(2)]
        path = files.model(tag, doc)
        _discrete_commands(plan, tag, path, oracle, points, commands)
        for k in range(extra):
            point = gen.discrete_instance(rng, oracle)
            plan.add(f"{tag}.expected_{k + 2}",
                     ["shap", "--model", path, "--instance", _point_text(point),
                      "--game", "expected"],
                     check_shap(oracle, point, "expected"))
    for m, commands in ((8, NO_COMPARE), (9, NO_EXPECTED)):
        doc, oracle = gen.tree(rng, m, 5, 2, full=True)
        twin_doc, twin_oracle = gen.tabulated(oracle)
        points = [gen.discrete_instance(rng, oracle) for _ in range(2)]
        tree = _discrete_commands(plan, f"tree{m}", files.model(f"tree{m}", doc),
                                  oracle, points, commands)
        twin = _discrete_commands(plan, f"tree{m}_twin", files.model(f"tree{m}_twin", twin_doc),
                                  twin_oracle, points, commands)
        for cmd in commands:
            plan.group([tree[cmd], twin[cmd]], same_results(tree[cmd], twin[cmd]))
    return plan


def hoeffding_count(epsilon, alpha, m, bound):
    return math.ceil(float(bound) ** 2 * math.log(2 * m / float(alpha))
                     / (2 * float(epsilon) ** 2))


def check_cgt(oracle, point, game, epsilon, delta=None):
    base = check_shap(oracle, point, game, delta)

    def check(report, text):
        base(report, text)
        lo, hi = oracle.output_range()
        bound = hi - lo if game == "expected" else Fraction(1)
        diag = report["diagnostics"]
        expect(Fraction(diag["marginal_bound"]) == bound, "wrong marginal bound")
        want = hoeffding_count(epsilon, CGT_ALPHA, oracle.m, bound)
        expect(diag["permutations"] == want,
               f"{diag['permutations']} permutations, Hoeffding count is {want}")
    return check


WAXP_100, WAXP_200 = ("waxp", Fraction(1, 100)), ("waxp", Fraction(1, 200))
EXPECTED_20, EXPECTED_50 = ("expected", Fraction(1, 20)), ("expected", Fraction(1, 50))
# (game, epsilon) settings per target. The expected game at 1/50 on the
# fixtures and waxp at 1/200 on cls3 and the trees took 0.5-2 s each and
# left room for too few rounds.
CGT_SETTINGS = {
    "cls3": (WAXP_100, EXPECTED_20),
    "pw2": (WAXP_100, WAXP_200, EXPECTED_20),
    "tree": (WAXP_100, EXPECTED_20, EXPECTED_50),
}
# Repeats at fresh seeds of the waxp game at 1/100 on each fixture: CGT's
# cost is set by its permutation count and the model, not by its seed, so
# the repeats make bands of like invocations that latency_p50_ms (pw2) and
# latency_tail_ms (cls3) fall in, and neither varies much from seed to seed.
CGT_REPEATS = {"cls3": 5, "pw2": 16}


def cgt_sampling(rng, files):
    plan = Plan()
    cls3, cls3_oracle = fixture("cls3.json")
    pw2, pw2_oracle = fixture("pw2.json")
    targets = [("cls3", cls3, cls3_oracle, (1, 1, 2), None),
               ("pw2", pw2, pw2_oracle, (1, 1), Fraction(1, 5))]
    for k, m in enumerate((4, 6, 8)):
        doc, oracle = gen.tree(rng, m, 4, 1, leaf_pool=(0, 1))
        targets.append((f"tree{k}_m{m}", files.model(f"cgt_tree{k}", doc), oracle,
                        gen.discrete_instance(rng, oracle), None))
    settings = [CGT_SETTINGS["cls3"], CGT_SETTINGS["pw2"]] + [CGT_SETTINGS["tree"]] * 3

    def add(name, target, game, eps, seed, extra_check=None):
        tag, path, oracle, point, delta = target
        inst = ["--model", path, "--instance", _point_text(point)]
        if delta is not None:
            inst += ["--delta", str(delta)]
        argv = ["shap", *inst, "--game", game, "--method", "cgt", "--epsilon", str(eps)]
        if seed is not None:
            argv += ["--alpha", str(CGT_ALPHA), "--seed", str(seed)]
        else:  # the CLI's default alpha and seed
            argv += ["--seed", "7"]
        check = check_cgt(oracle, point, game, eps, delta)
        plan.add(name, argv, check if extra_check is None else both(check, extra_check))

    for target, pairs in zip(targets, settings):
        for game, eps in pairs:
            add(f"{target[0]}.cgt_{game}_{eps.denominator}", target, game, eps,
                rng.randrange(2 ** 32))
    for target in targets[:2]:
        name = f"{target[0]}.cgt_fixed_seed"
        add(name, target, *WAXP_100, None, check_digest(name))
    for target in targets[:2]:
        for k in range(CGT_REPEATS[target[0]]):
            add(f"{target[0]}.cgt_waxp_100_{k + 2}", target, *WAXP_100, rng.randrange(2 ** 32))
    return plan


def _box_commands(plan, tag, path, oracle, point, delta, digest=False, full=True):
    """validate and relevancy on one model and instance; with ``full``, also
    both shap games and AXP enumeration."""
    inst = ["--model", path, "--instance", _point_text(point)]
    with_delta = [*inst, "--delta", str(delta)]
    start = len(plan.invocations)
    validate = plan.add(f"{tag}.validate", ["validate", "--model", path],
                        lambda r, t: expect(r["results"] == {"ok": True, "cells": len(oracle.cells)},
                                            f"validate says {r['results']}"))
    if not full:
        plan.add(f"{tag}.relevancy", ["relevancy", *with_delta], check_relevancy(oracle, point))
        return validate
    plan.add(f"{tag}.shap_expected", ["shap", *inst, "--game", "expected"],
             check_shap(oracle, point, "expected"))
    waxp = plan.add(f"{tag}.shap_waxp", ["shap", *with_delta, "--game", "waxp"],
                    check_shap(oracle, point, "waxp", delta))
    rel = plan.add(f"{tag}.relevancy", ["relevancy", *with_delta],
                   check_relevancy(oracle, point))
    enum = plan.add(f"{tag}.enumerate_axp", ["enumerate", *with_delta, "--kind", "axp"],
                    lambda r, t: check_prediction(r, oracle, point))
    plan.group([rel, enum, waxp], box_duality(rel, enum, waxp))
    if digest:
        for inv in plan.invocations[start:]:
            inv.check = both(inv.check, check_digest(inv.name))
    return validate


# (kind, m, cells or slabs per axis, lattice, all five commands?). Every kd
# model has enough cells for its cuts to fill the lattice (see gen.box_kd),
# so the partition check's work, the product of the distinct cuts per axis
# times the cells, is the same on every seed. The models fall in bands of
# like cost: 25 cheap invocations (pw2, kd3_16, kd2_32 and the grids), 20
# middle ones (two kd2_64, two kd3_32) that latency_p50_ms falls in, 15
# dear ones (two kd2_128, kd3_64) that latency_tail_ms falls in, and
# validate and relevancy on kd2_256 above.
BOX_MODELS = (
    [("kd", 2, n, lattice, True) for n, lattice in ((32, 8), (64, 16), (64, 16), (128, 16),
                                                    (128, 16))]
    + [("kd", 2, 256, 32, False)]
    + [("kd", 3, n, lattice, True) for n, lattice in ((16, 4), (32, 8), (32, 8), (64, 8))]
    + [("grid", 2, (8, 8), 32, True), ("grid", 3, (4, 4, 4), 16, True)]
)


def box_piecewise(rng, files):
    plan = Plan()
    pw2, pw2_oracle = fixture("pw2.json")
    _box_commands(plan, "pw2", pw2, pw2_oracle, (1, 1), Fraction(1, 5), digest=True)
    for kind, m, size, lattice, full in BOX_MODELS:
        if kind == "kd":
            doc, oracle = gen.box_kd(rng, m, size, lattice)
            tag = f"kd{m}_{size}"
        else:
            doc, oracle = gen.box_grid(rng, size, lattice)
            tag = f"grid{m}_{'x'.join(map(str, size))}"
        while any(inv.name.startswith(tag + ".") for inv in plan.invocations):
            tag += "b"
        lo, hi = oracle.output_range()
        while True:  # the output must leave the delta band somewhere
            point = gen.box_instance(rng, m, lattice)
            pred = oracle.predict(point)
            if lo < pred - BOX_DELTA or hi > pred + BOX_DELTA:
                break
        _box_commands(plan, tag, files.model(tag, doc), oracle, point, BOX_DELTA, full=full)
    return plan


def _lattice_commands(plan, tag, path, oracle, point, sample=None, digest=False, full=True):
    """relevancy on one model and instance; with ``full``, also axp, cxp
    and both enumerations."""
    inst = ["--model", path, "--instance", _point_text(point)]
    if sample is not None:
        inst += ["--agnostic", "--sample", sample]
    start = len(plan.invocations)
    aware = sample is None
    rel = plan.add(f"{tag}.relevancy", ["relevancy", *inst],
                   check_relevancy(oracle, point, model_aware=aware))
    if not full:
        return
    axp = plan.add(f"{tag}.axp", ["axp", *inst], lambda r, t: check_prediction(r, oracle, point))
    cxp = plan.add(f"{tag}.cxp", ["cxp", *inst], lambda r, t: check_prediction(r, oracle, point))
    enum_axp = plan.add(f"{tag}.enumerate_axp", ["enumerate", *inst, "--kind", "axp"],
                        lambda r, t: check_prediction(r, oracle, point))
    enum_cxp = plan.add(f"{tag}.enumerate_cxp", ["enumerate", *inst, "--kind", "cxp"],
                        lambda r, t: check_prediction(r, oracle, point))
    plan.group([rel, axp, cxp, enum_axp, enum_cxp],
               explanation_duality(rel, axp, cxp, enum_axp, enum_cxp))
    if digest:
        for inv in plan.invocations[start:]:
            inv.check = both(inv.check, check_digest(inv.name))


# (kind, m, instances, sample rows, all five commands?); each instance is
# explained model-aware and, given sample rows, agnostic. The counts put
# about as many invocations below the band of 45-75 ms ones (tab10 and the
# m=12 tree's enumerations) as above it, so that latency_p50_ms falls
# inside the band, and seven above the band of agnostic relevancy and
# enumerations on tab10 and the m=10 tree that latency_tail_ms falls in.
# The m=12 table, the m=14 tree's enumerations and samples of 1000-3000
# rows took 0.3-0.7 s a call and left room for too few rounds.
LATTICE_MODELS = (("tree", 10, 1, 500, True), ("tree", 12, 2, 500, True),
                  ("tree", 14, 1, None, False), ("tab", 10, 1, 500, True))


def explain_lattice(rng, files):
    plan = Plan()
    reg2, reg2_oracle = fixture("reg2.json")
    _lattice_commands(plan, "reg2", reg2, reg2_oracle, (1, 1), digest=True)
    for kind, m, instances, rows, full in LATTICE_MODELS:
        tag = f"{kind}{m}"
        if kind == "tree":
            doc, oracle = gen.tree(rng, m, 5, 2, full=True)
        else:
            doc, oracle = gen.tabular(rng, m, 2, 2)
        path = files.model(tag, doc)
        for k in range(instances):
            name = f"{tag}_{k + 1}" if k else tag
            point = gen.discrete_instance(rng, oracle)
            _lattice_commands(plan, name, path, oracle, point, full=full)
            if rows is None:  # the agnostic scan would take seconds per call
                continue
            pred = oracle.predict(point)
            while True:  # the sample must hold a row the instance can be contrasted with
                text = gen.sample_csv(rng, oracle, rows, point)
                if any(Fraction(line.rsplit(",", 1)[1]) != pred
                       for line in text.splitlines()[1:]):
                    break
            _lattice_commands(plan, f"{name}.agnostic", path, oracle, point,
                              files.text(f"{name}.csv", text))
    return plan


BUILDERS = {
    "exact_discrete": exact_discrete,
    "cgt_sampling": cgt_sampling,
    "box_piecewise": box_piecewise,
    "explain_lattice": explain_lattice,
}


def build(workload: str, seed: int, workdir: Path) -> Plan:
    """Generate the workload's files under ``workdir`` and return its plan,
    shuffled into a seeded order. The same seed gives the same files and
    the same plan."""
    rng = random.Random(f"{workload}:{seed}")
    plan = BUILDERS[workload](rng, _Files(workdir))
    rng.shuffle(plan.invocations)
    return plan
