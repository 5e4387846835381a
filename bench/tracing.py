"""Tracing shapxp from the outside.

shapxp modules import each other's functions by name, so a call is traced by
rebinding the name where the caller looks it up (``shapxp.games.is_waxp``,
``shapxp.explanations.is_waxp``, ...) and restoring the original afterwards.
Coarse boundaries become spans with parent links; hot leaves (``predict``,
``similar``, ``Game.value``, ``permutation_at`` ...) only add to per-name
counters, since one span per call would swamp the run. Every wrapped call
pushes a frame, so a name's self time is its duration minus the time of the
wrapped calls nested in it.
"""

from __future__ import annotations

import importlib
import sys
import time
from functools import wraps

# (metric name, lookup sites as "module:attribute" or "module:Class.method")
SPANS = (
    ("modelio.load_model", ("shapxp.cli:load_model",)),
    ("modelio.load_sample", ("shapxp.cli:load_sample",)),
    ("modelio.to_json", ("shapxp.modelio:RunReport.to_json",)),
    ("models.make_instance", ("shapxp.cli:make_instance",)),
    ("models.output_range", ("shapxp.games:output_range",)),
    ("games.shapley_exact", ("shapxp.cli:shapley_exact",)),
    ("games.check_compliance", ("shapxp.cli:check_compliance",)),
    ("explanations.relevant_features", ("shapxp.cli:relevant_features",
                                        "shapxp.games:relevant_features")),
    ("explanations.enumerate_cxps", ("shapxp.cli:enumerate_cxps",
                                     "shapxp.explanations:enumerate_cxps")),
    ("explanations.axps_from_cxps", ("shapxp.cli:axps_from_cxps",)),
    ("explanations.minimal_hitting_sets", ("shapxp.explanations:minimal_hitting_sets",)),
    ("explanations.extract_axp", ("shapxp.cli:extract_axp",)),
    ("explanations.extract_cxp", ("shapxp.cli:extract_cxp",)),
    ("explanations.agnostic_support", ("shapxp.cli:agnostic_support",)),
    ("cgt.cgt_estimate", ("shapxp.cgt:cgt_estimate",)),
    ("ranking.compare_scores", ("shapxp.cli:compare_scores",)),
    ("ranking.summarize_comparisons", ("shapxp.cli:summarize_comparisons",)),
    ("ranking.rank_features", ("shapxp.cli:rank_features", "shapxp.ranking:rank_features")),
)
LEAVES = (
    ("models.predict", ("shapxp.models:predict", "shapxp.similarity:predict",
                        "shapxp.explanations:predict", "shapxp.modelio:predict")),
    ("models.conditional_expectation", ("shapxp.games:conditional_expectation",)),
    ("similarity.similar", ("shapxp.explanations:similar",)),
    ("similarity.similar_value", ("shapxp.explanations:similar_value",
                                  "shapxp.similarity:similar_value")),
    ("games.value", ("shapxp.games:Game.value",)),
    ("games.charfn", ("shapxp.games:cf_expected", "shapxp.games:cf_waxp")),
    ("explanations.is_waxp", ("shapxp.games:is_waxp", "shapxp.explanations:is_waxp")),
    ("explanations.is_wcxp", ("shapxp.explanations:is_wcxp",)),
    ("cgt.permutation_at", ("shapxp.cgt:permutation_at",)),
    ("ranking.rbo", ("shapxp.ranking:rbo",)),
)
LAYERS = ("cli", "modelio", "models", "similarity", "games", "explanations", "cgt", "ranking")
# Names whose result length is summed: sample rows loaded, CXps found.
RESULT_SIZES = {"modelio.load_sample", "explanations.enumerate_cxps"}


def resolve(site):
    """(owner object, attribute name) of a "module:attr" lookup site."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and per-name counters of one traced run, kept in memory."""

    def __init__(self):
        self.stats = {}        # name -> [calls, total_ns, self_ns, result size]
        self.spans = []        # (id, parent id, invocation, name, start_ns, end_ns)
        self.invocation = 0
        self._frames = []      # child_ns accumulators of the open calls
        self._open_spans = []  # ids of the open spans
        self._installed = []   # (owner, attr, original)

    def wrap(self, name, fn, span):
        stat = self.stats.setdefault(name, [0, 0, 0, 0])
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        clock = time.perf_counter_ns
        size_of = len if name in RESULT_SIZES else None

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            frames.append(frame)
            if span:
                span_id = len(spans)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
                spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                if span:
                    open_spans.pop()
                    spans[span_id] = (span_id, parent, self.invocation, name, start, end)
            if size_of is not None:
                stat[3] += size_of(result)
            return result
        return traced

    def install(self):
        """Rebind every lookup site that exists; a site that a later shapxp
        no longer has is skipped and its counters stay at zero."""
        for table, span in ((SPANS, True), (LEAVES, False)):
            for name, sites in table:
                for site in sites:
                    try:
                        owner, attr = resolve(site)
                        original = owner.__dict__[attr]
                    except (ImportError, AttributeError, KeyError):
                        print(f"trace: skipping missing site {site}", file=sys.stderr)
                        continue
                    self._installed.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, span))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- derived figures ---------------------------------------------------

    def stat(self, name):
        calls, total, self_ns, size = self.stats.get(name, (0, 0, 0, 0))
        return {"calls": calls, "ms": total / 1e6, "self_ms": self_ns / 1e6, "size": size}

    def layer_self_ms(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_ns, _) in self.stats.items():
            out[name.split(".")[0]] += self_ns / 1e6
        return out
