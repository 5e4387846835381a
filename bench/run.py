"""Seeded benchmark of the shapxp command line.

    python3 bench/run.py --workload exact_discrete --seed 1 --seconds 20 --trace 0

Run from the repository root or anywhere else: the script works inside the
checkout that holds it and imports shapxp from its ``src`` directory. It
generates the workload's models and samples from the seed under
``.bench_work/``, then drives ``shapxp.cli.run_cli`` in this process, one
invocation at a time (a closed loop with one client and no threads), and
checks every report. ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` alternates untraced and traced rounds and prints the per-layer metrics.
Every metric is printed by name with its unit, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

A run repeats the workload's round of invocations a fixed number of times,
derived from ``--seconds`` and the round's nominal duration, so the same
seed and seconds measure the same work; a host slower than nominal drops
the rounds (down to MIN_ROUNDS) that would end after ``--seconds``.

Each invocation is timed by the CPU time of this thread. The CLI is single
threaded and reads only small files, so on an idle core that is its wall
time; on a shared core it leaves out the time other processes held it.
The shared host also slows the core itself, in bursts of up to 2x that
come and go within a second, and drifts by as much over minutes. So each
round's times are rescaled to the nominal machine speed by the median time
of a calibration kernel timed between its invocations (see
calibration_ms), and an invocation's latency is its median over the
rounds. The context line gives each round's speed factor.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from itertools import product
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
# Wall time of one round on the machine the benchmark was tuned on (2
# cores, Python 3.11.7, shared); sets how many rounds fill --seconds.
NOMINAL_ROUND_S = {
    "exact_discrete": 5.0,
    "cgt_sampling": 6.0,
    "box_piecewise": 5.0,
    "explain_lattice": 5.5,
}
# Rounds a run makes however slow the host; with --trace 1 every other
# round is traced.
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Time of one calibration pass on the nominal machine, about its time on the
# 2-core host the benchmark was tuned on (Python 3.11.7); see
# calibration_ms. It sets the machine that reported times refer to.
CALIBRATION_NOMINAL_MS = 12.0
# CPU time of invocations after which the kernel is timed again.
CALIBRATION_EVERY_MS = 150.0
# What a malformed or wrong report can raise inside a check.
CHECK_ERRORS = (ValueError, KeyError, TypeError, AttributeError, IndexError,
                workloads.CheckFailed)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_shapxp():
    """Import shapxp afresh from this checkout's src directory."""
    for name in [n for n in sys.modules if n == "shapxp" or n.startswith("shapxp.")]:
        del sys.modules[name]
    import shapxp.cli
    origin = Path(shapxp.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"shapxp was imported from {origin}, not from {ROOT / 'src'}")
    return shapxp.cli


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_ms():
    """CPU time of a fixed pure-Python kernel like shapxp's inner loops
    (tuples from itertools.product, dict lookups, Fraction arithmetic) over
    a table of 4096 entries, about shapxp's working set, with the cyclic
    collector off so that shapxp's heap does not slow it.

    The host's speed drifts by up to 2x over minutes, as other tenants load
    it, and shapxp slows in step with this kernel. Its median time over a
    round gives the factor that rescales the round's times to the nominal
    machine speed."""
    gc.disable()
    try:
        start = time.thread_time()
        table = {}
        for k, point in enumerate(product((0, 1), repeat=12)):
            table[point] = Fraction(k % 7, 3)
        total = Fraction(0)
        for point in product((0, 1), repeat=12):
            if point[0]:
                total += table[point] * 2
        return (time.thread_time() - start) * 1000.0
    finally:
        gc.enable()


def run_round(cli, plan, tracer=None):
    """Run every invocation of the plan once. Returns the latencies (CPU ms)
    in plan order, rescaled to the nominal machine speed, the speed factor
    they were rescaled by, a message for each invocation that failed, and
    the report text of each one that passed."""
    call = cli.run_cli if tracer is None else tracer.wrap("cli.run_cli", cli.run_cli, True)
    outputs = {}
    latencies = []
    failures = {}
    calibration = [calibration_ms()]
    since = 0.0
    for inv in plan.invocations:
        if since >= CALIBRATION_EVERY_MS:
            calibration.append(calibration_ms())
            since = 0.0
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.invocation += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.thread_time()
            try:
                code = call(inv.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception:  # a crash is one failed invocation, not a dead run
                code = "exception:\n" + traceback.format_exc()
            latencies.append((time.thread_time() - start) * 1000.0)
            since += latencies[-1]
        if code != 0:
            failures[inv.name] = f"exit {code}: {err.getvalue().strip()[:500]}"
            continue
        text = out.getvalue()
        try:
            report = json.loads(text)
            if inv.check is not None:
                inv.check(report, text)
        except CHECK_ERRORS as exc:
            failures[inv.name] = f"check: {exc!r}"
            continue
        outputs[inv.name] = (report, text)
    for names, fn in plan.group_checks:
        if all(n in outputs for n in names):
            try:
                fn(outputs)
            except CHECK_ERRORS as exc:
                for n in names:
                    failures.setdefault(n, f"group check: {exc!r}")
    texts = {name: text for name, (_, text) in outputs.items() if name not in failures}
    calibration.append(calibration_ms())
    speed = CALIBRATION_NOMINAL_MS / statistics.median(calibration)
    return [ms * speed for ms in latencies], speed, failures, texts


def per_invocation(rounds):
    """Each invocation's median time over the rounds."""
    return [statistics.median(times) for times in zip(*rounds)]


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, sample count).

    The samples are the invocations of one round, each timed by its median
    over the rounds, so the rank the percentile picks does not depend on
    how many rounds the host had time for."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n, n


def per_layer_metrics(tracer, invocations, overhead):
    inv = max(1, invocations)
    s = tracer.stat
    layer = tracer.layer_self_ms()
    total = sum(layer.values()) or 1.0
    value, charfn = s("games.value"), s("games.charfn")
    wcxp, enum = s("explanations.is_wcxp"), s("explanations.enumerate_cxps")
    perms, cgt = s("cgt.permutation_at"), s("cgt.cgt_estimate")
    m = {
        "cli.run_cli.self_ms": (s("cli.run_cli")["self_ms"] / inv, "ms/inv"),
        "modelio.load_model.ms": (s("modelio.load_model")["ms"] / inv, "ms/inv"),
        "modelio.load_model.calls": (s("modelio.load_model")["calls"] / inv, "1/inv"),
        "modelio.load_sample.ms": (s("modelio.load_sample")["ms"] / inv, "ms/inv"),
        "modelio.load_sample.rows": (s("modelio.load_sample")["size"] / inv, "rows/inv"),
        "models.predict.calls": (s("models.predict")["calls"] / inv, "1/inv"),
        "models.predict.ms": (s("models.predict")["ms"] / inv, "ms/inv"),
        "models.conditional_expectation.calls":
            (s("models.conditional_expectation")["calls"] / inv, "1/inv"),
        "models.conditional_expectation.ms":
            (s("models.conditional_expectation")["ms"] / inv, "ms/inv"),
        "similarity.similar.calls": (s("similarity.similar")["calls"] / inv, "1/inv"),
        "similarity.similar.ms": (s("similarity.similar")["ms"] / inv, "ms/inv"),
        "games.value.calls": (value["calls"] / inv, "1/inv"),
        "games.charfn.evals": (charfn["calls"] / inv, "1/inv"),
        "games.value.hit_ratio":
            (1 - charfn["calls"] / value["calls"] if value["calls"] else 0.0, "ratio"),
        "games.shapley_exact.self_ms": (s("games.shapley_exact")["self_ms"] / inv, "ms/inv"),
        "games.check_compliance.ms": (s("games.check_compliance")["ms"] / inv, "ms/inv"),
        "explanations.is_waxp.calls": (s("explanations.is_waxp")["calls"] / inv, "1/inv"),
        "explanations.is_waxp.ms": (s("explanations.is_waxp")["ms"] / inv, "ms/inv"),
        "explanations.enumerate_cxps.ms": (enum["ms"] / inv, "ms/inv"),
        "explanations.is_wcxp.calls": (wcxp["calls"] / inv, "1/inv"),
        "explanations.cxp_yield":
            (enum["size"] / wcxp["calls"] if wcxp["calls"] else 0.0, "ratio"),
        "explanations.minimal_hitting_sets.ms":
            (s("explanations.minimal_hitting_sets")["ms"] / inv, "ms/inv"),
        "explanations.extract.ms":
            ((s("explanations.extract_axp")["ms"] + s("explanations.extract_cxp")["ms"]) / inv,
             "ms/inv"),
        "cgt.permutations": (perms["calls"] / inv, "1/inv"),
        # The cgt layer's own time inside cgt_estimate, permutation draws included.
        "cgt.cgt_estimate.self_ms": (layer["cgt"] / inv, "ms/inv"),
        "cgt.us_per_permutation":
            (cgt["ms"] * 1000.0 / perms["calls"] if perms["calls"] else 0.0, "us"),
        "ranking.compare_scores.ms": (s("ranking.compare_scores")["ms"] / inv, "ms/inv"),
        "ranking.rbo.calls": (s("ranking.rbo")["calls"] / inv, "1/inv"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for name in layer:
        m[f"layer.{name}.self_ms"] = (layer[name] / inv, "ms/inv")
        m[f"layer.{name}.self_share"] = (layer[name] / total, "ratio")
    return m


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    # The CLI reads SHAPXP_THREADS and would start a sampling thread pool.
    os.environ.pop("SHAPXP_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / args.workload

    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.thread_time()
        cli = import_shapxp()
        plan = workloads.build(args.workload, args.seed, workdir)
        seconds = time.thread_time() - start
        speed = CALIBRATION_NOMINAL_MS / statistics.median(calibration_ms() for _ in range(3))
        setup.append(seconds * speed)

    planned = max(MIN_ROUNDS, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, speeds, failures, first_texts = [], [], [], [], {}
    started = last = time.perf_counter()
    rounds = 0
    while rounds < planned:
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - started + (now - last) > args.seconds:
            break
        last = now
        if tracer is not None and rounds % 2:
            with tracer:
                lat, speed, fail, texts = run_round(cli, plan, tracer)
            traced.append(lat)
        else:
            lat, speed, fail, texts = run_round(cli, plan)
            untraced.append(lat)
        speeds.append(speed)
        rounds += 1
        failures += fail.items()
        for name, text in texts.items():  # every report repeats byte for byte
            if first_texts.setdefault(name, text) != text:
                failures.append((name, "report differs from an earlier round"))
    wall = time.perf_counter() - started

    attempted = rounds * len(plan.invocations)
    failed = len(failures)
    samples = per_invocation(untraced)
    if tracer is not None:
        overhead = statistics.median(per_invocation(traced)) / statistics.median(samples)
        metrics = per_layer_metrics(tracer, len(traced) * len(plan.invocations), overhead)
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    else:
        value, percentile, n = tail(samples)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "latency_p50_ms": (statistics.median(samples), "ms"),
            "latency_tail_ms": (value, "ms"),
            # Per CPU second spent in run_cli, so the checks do not count.
            # One round at each invocation's median time.
            "invocations_per_s": (len(samples) / (sum(samples) / 1000.0), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_sha": git_sha(),
        "fail_ratio": failed / attempted, "wall_s": round(wall, 3),
        "speed_factors": [round(x, 4) for x in speeds],
    }
    if not args.trace:
        context.update(tail_percentile=round(percentile, 2), tail_samples=n)
    for name, message in failures[:10]:
        print(f"FAILED {name}: {message}", file=sys.stderr)
    print("context " + json.dumps(context, sort_keys=True))
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  (p{percentile:.2f} of {n} invocation medians)"
        print(f"{name:<{width}}  {value:>14.4f}  {unit}{extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
