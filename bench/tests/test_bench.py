"""Tests of the benchmark itself: seeded generation, output checks on a
small slice of every workload, and the tracer's rebinding of shapxp names.

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Invocation-name prefixes that make a quick slice of each workload.
SLICES = {
    "exact_discrete": ("cls3.", "cls3_tree.", "tab8.", "ternary5.", "tree8.", "tree8_twin."),
    "cgt_sampling": ("pw2.", "tree0_m4."),
    "box_piecewise": ("pw2.", "kd2_32.", "kd3_16.", "grid2_8x8."),
    "explain_lattice": ("reg2.", "tree10.", "tab10."),
}


@pytest.fixture(autouse=True)
def in_checkout(monkeypatch):
    monkeypatch.chdir(ROOT)


def sliced(plan, prefixes):
    plan.invocations = [i for i in plan.invocations if i.name.startswith(prefixes)]
    names = {i.name for i in plan.invocations}
    plan.group_checks = [g for g in plan.group_checks if set(g[0]) <= names]
    return plan


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_generation_is_deterministic_for_a_seed(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path / "a")
    again = workloads.build(workload, 7, tmp_path / "b")
    other = workloads.build(workload, 8, tmp_path / "c")
    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")

    def argv(plan, directory):
        return [[a.replace(str(directory), "<dir>") for a in i.argv] for i in plan.invocations]

    assert argv(first, tmp_path / "a") == argv(again, tmp_path / "b")
    assert snapshot(tmp_path / "a") != snapshot(tmp_path / "c")
    assert argv(first, tmp_path / "a") != argv(other, tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_a_small_run_of_each_workload_has_no_failures(workload, tmp_path):
    cli = run.import_shapxp()
    plan = sliced(workloads.build(workload, 3, tmp_path), SLICES[workload])
    assert plan.invocations
    latencies, _, failures, texts = run.run_round(cli, plan)
    assert failures == {}
    assert len(latencies) == len(texts) == len(plan.invocations)
    assert run.run_round(cli, plan)[3] == texts  # reports repeat byte for byte


def test_a_changed_report_counts_as_a_failure(tmp_path, monkeypatch):
    cli = run.import_shapxp()
    plan = sliced(workloads.build("box_piecewise", 3, tmp_path), ("pw2.",))
    monkeypatch.setitem(workloads.DIGESTS, "pw2.validate", "0" * 64)
    _, _, failures, _ = run.run_round(cli, plan)
    assert list(failures) == ["pw2.validate"]


def test_tracing_restores_every_rebound_name(tmp_path):
    cli = run.import_shapxp()
    sites = [site for table in (tracing.SPANS, tracing.LEAVES) for _, names in table
             for site in names]
    before = {site: tracing.resolve(site) for site in sites}
    originals = {site: owner.__dict__[attr] for site, (owner, attr) in before.items()}
    plan = sliced(workloads.build("exact_discrete", 3, tmp_path), ("cls3.", "tab8."))
    tracer = tracing.Tracer()
    with tracer:
        assert all(owner.__dict__[attr] is not originals[site]
                   for site, (owner, attr) in before.items())
        _, _, failures, _ = run.run_round(cli, plan, tracer)
    assert failures == {}
    assert tracer.stat("models.predict")["calls"] > 0
    assert tracer.spans and all(s is not None for s in tracer.spans)
    for site, (owner, attr) in before.items():
        assert owner.__dict__[attr] is originals[site], site
