"""Seeded, standard-library-only generation of benchmark models and samples.

Every generator takes a ``random.Random`` and returns a model document in the
format of docs/model-format.md. :class:`Oracle` reads such a document (a
generated one or a fixture) and answers what the benchmark needs to check
shapxp's output: predictions, the mean output, the output range and the
features the model provably ignores. Nothing here imports shapxp, so the
oracles are independent of the code under test.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from pathlib import Path

VALUE_POOL = (0, 1, 2, 3)
AFFINE_POOL = tuple(Fraction(k, 2) for k in range(-4, 5))


def rat(x):
    """JSON spelling of a rational: an integer or a "p/q" string."""
    x = Fraction(x)
    return int(x) if x.denominator == 1 else str(x)


class Oracle:
    """The benchmark's own reading of a model document."""

    def __init__(self, doc, irrelevant=()):
        self.doc = doc
        self.m = len(doc["features"])
        self.irrelevant = frozenset(irrelevant)
        domains = [f["domain"] for f in doc["features"]]
        self.cells = None
        self.points = None
        if doc["kind"] == "box_piecewise":
            self.bounds = [(Fraction(d["lo"]), Fraction(d["hi"])) for d in domains]
            self.cells = [
                (tuple((Fraction(lo), Fraction(hi)) for lo, hi in c["box"]),
                 Fraction(c["affine"][0]), tuple(Fraction(a) for a in c["affine"][1:]))
                for c in doc["cells"]]
            self.predict = self._box_predict
            return
        self.points = list(product(*(tuple(Fraction(v) for v in d["values"])
                                     for d in domains)))
        if doc["kind"] == "tabular":
            table = dict.fromkeys(self.points, Fraction(doc.get("default", 0)))
            for entry in doc["table"]:
                table[tuple(Fraction(x) for x in entry["point"])] = Fraction(entry["value"])
            self.predict = lambda p: table[tuple(Fraction(x) for x in p)]
        else:
            self.nodes = {n["id"]: n for n in doc["nodes"]}
            self.predict = self._tree_predict

    def _tree_predict(self, point):
        node = self.nodes[self.doc["root"]]
        while "feature" in node:
            x = Fraction(point[node["feature"] - 1])
            node = self.nodes[next(e["child"] for e in node["edges"]
                                   if x in map(Fraction, e["values"]))]
        return Fraction(node["value"])

    def _box_predict(self, point):
        point = [Fraction(x) for x in point]
        for box, a0, coeffs in self.cells:
            if all(lo <= x < hi or x == hi == top
                   for (lo, hi), x, (_, top) in zip(box, point, self.bounds)):
                return a0 + sum(a * x for a, x in zip(coeffs, point))
        raise ValueError(f"no cell holds {point}")

    def mean(self) -> Fraction:
        """Mean output under the uniform distribution on the space."""
        if self.points is not None:
            return sum(map(self.predict, self.points), Fraction(0)) / len(self.points)
        total = Fraction(0)
        for box, a0, coeffs in self.cells:
            vol = Fraction(1)
            value = a0
            for (lo, hi), a in zip(box, coeffs):
                vol *= hi - lo
                value += a * (lo + hi) / 2
            total += vol * value
        space = Fraction(1)
        for lo, hi in self.bounds:
            space *= hi - lo
        return total / space

    def output_range(self) -> tuple[Fraction, Fraction]:
        """Exact min and max output (closure extremes for box models)."""
        if self.points is not None:
            values = list(map(self.predict, self.points))
            return min(values), max(values)
        lows, highs = [], []
        for box, a0, coeffs in self.cells:
            lows.append(a0 + sum(a * (lo if a > 0 else hi) for (lo, hi), a in zip(box, coeffs)))
            highs.append(a0 + sum(a * (hi if a > 0 else lo) for (lo, hi), a in zip(box, coeffs)))
        return min(lows), max(highs)


def _discrete_features(m, arity):
    return [{"id": i + 1, "name": f"x{i + 1}",
             "domain": {"type": "discrete", "values": list(range(arity))}}
            for i in range(m)]


# ---------------------------------------------------------------------------
# Discrete models
# ---------------------------------------------------------------------------

def tabular(rng, m, arity=2, n_irrelevant=1):
    """A lookup table whose value depends only on a random subset of the
    features; the other ``n_irrelevant`` features are provably irrelevant."""
    irrelevant = set(rng.sample(range(1, m + 1), n_irrelevant))
    active = [i for i in range(1, m + 1) if i not in irrelevant]
    while True:
        inner = {key: rng.choice(VALUE_POOL)
                 for key in product(range(arity), repeat=len(active))}
        if len(set(inner.values())) >= 2:
            break
    doc = {"version": 1, "kind": "tabular", "value_kind": "numeric",
           "features": _discrete_features(m, arity),
           "table": [{"point": list(p), "value": inner[tuple(p[i - 1] for i in active)]}
                     for p in product(range(arity), repeat=m)]}
    return doc, Oracle(doc, irrelevant)


def tree(rng, m, depth, n_untested, leaf_pool=VALUE_POOL, full=False):
    """A binary decision tree of at most ``depth`` levels that never tests
    ``n_untested`` randomly chosen features. A ``full`` tree tests exactly
    ``depth`` features on every path and gives every leaf its own value."""
    usable = sorted(set(range(1, m + 1)) - set(rng.sample(range(1, m + 1), n_untested)))
    while True:
        nodes = []
        distinct = rng.sample(range(2 ** depth), 2 ** depth) if full else None

        def grow(level, path):
            nid = len(nodes)
            nodes.append(None)
            free = [i for i in usable if i not in path]
            if level < depth and free and (full or level < 2 or rng.random() < 0.85):
                feature = rng.choice(free)
                kids = [grow(level + 1, path | {feature}) for _ in range(2)]
                nodes[nid] = {"id": nid, "feature": feature,
                              "edges": [{"values": [v], "child": c}
                                        for v, c in enumerate(kids)]}
            else:
                value = distinct.pop() if full else rng.choice(leaf_pool)
                nodes[nid] = {"id": nid, "value": rat(value)}
            return nid

        grow(0, frozenset())
        if len({n["value"] for n in nodes if "value" in n}) >= 2:
            break
    doc = {"version": 1, "kind": "tree", "value_kind": "numeric",
           "features": _discrete_features(m, 2), "root": 0, "nodes": nodes}
    tested = {n["feature"] for n in nodes if "feature" in n}
    return doc, Oracle(doc, set(range(1, m + 1)) - tested)


def tabulated(oracle):
    """The tabular twin of a discrete model: same space, same function."""
    doc = {"version": 1, "kind": "tabular", "value_kind": "numeric",
           "features": oracle.doc["features"],
           "table": [{"point": [rat(x) for x in p], "value": rat(oracle.predict(p))}
                     for p in oracle.points]}
    return doc, Oracle(doc, oracle.irrelevant)


def sample_csv(rng, oracle, rows, around, resample=0.25):
    """Header plus ``rows`` points near ``around`` (each feature redrawn
    with probability ``resample``), with their prediction column, as a
    local explanation sample would be drawn."""
    axes = [f["domain"]["values"] for f in oracle.doc["features"]]
    lines = [",".join(f["name"] for f in oracle.doc["features"]) + ",prediction"]
    for _ in range(rows):
        p = tuple(rng.choice(axis) if rng.random() < resample else x
                  for axis, x in zip(axes, around))
        lines.append(",".join(map(str, p)) + f",{rat(oracle.predict(p))}")
    return "\n".join(lines) + "\n"


def discrete_instance(rng, oracle):
    axes = [f["domain"]["values"] for f in oracle.doc["features"]]
    return tuple(rng.choice(axis) for axis in axes)


# ---------------------------------------------------------------------------
# Box-piecewise models on the unit cube
# ---------------------------------------------------------------------------

def _box_doc(rng, boxes, m):
    doc = {"version": 1, "kind": "box_piecewise", "value_kind": "numeric",
           "features": [{"id": i + 1, "name": f"x{i + 1}",
                         "domain": {"type": "interval", "lo": 0, "hi": 1}}
                        for i in range(m)],
           "cells": [{"box": [[rat(lo), rat(hi)] for lo, hi in box],
                      "affine": [rat(rng.choice(AFFINE_POOL)) for _ in range(m + 1)]}
                     for box in boxes]}
    return doc, Oracle(doc)


def box_kd(rng, m, n_cells, lattice):
    """A guillotine partition: repeatedly split a random cell along a random
    axis at a point of the 1/lattice grid.

    Until every point of the grid is a cut on every axis, each split makes
    a new cut. With ``n_cells - 1 >= m * (lattice - 1)`` splits the cuts
    fill the grid, so the partition check, whose cost grows with the
    distinct cuts per axis, costs the same on every seed."""
    boxes = [((0, lattice),) * m]  # in units of 1/lattice
    fresh = [set(range(1, lattice)) for _ in range(m)]
    while len(boxes) < n_cells:
        splits = [(k, j, sorted(c for c in fresh[j] if lo < c < hi))
                  for k, box in enumerate(boxes) for j, (lo, hi) in enumerate(box)
                  if fresh[j]]
        splits = [split for split in splits if split[2]]
        if splits:
            k, j, cuts = rng.choice(splits)
            cut = rng.choice(cuts)
            fresh[j].discard(cut)
        else:
            k = rng.randrange(len(boxes))
            axes = [j for j, (lo, hi) in enumerate(boxes[k]) if hi - lo > 1]
            if not axes:
                continue
            j = rng.choice(axes)
            lo, hi = boxes[k][j]
            cut = rng.randrange(lo + 1, hi)
        box = boxes[k]
        lo, hi = box[j]
        boxes[k:k + 1] = [box[:j] + ((lo, cut),) + box[j + 1:],
                          box[:j] + ((cut, hi),) + box[j + 1:]]
    return _box_doc(rng, [tuple((Fraction(lo, lattice), Fraction(hi, lattice)) for lo, hi in box)
                          for box in boxes], m)


def box_grid(rng, per_axis, lattice):
    """A product grid with ``per_axis[j]`` slabs along axis j."""
    axes = []
    for count in per_axis:
        inner = sorted(rng.sample(range(1, lattice), count - 1))
        cuts = [Fraction(0)] + [Fraction(c, lattice) for c in inner] + [Fraction(1)]
        axes.append(list(zip(cuts, cuts[1:])))
    return _box_doc(rng, list(product(*axes)), len(per_axis))


def box_instance(rng, m, lattice):
    """A point strictly inside a cell of the 1/lattice grid."""
    return tuple(Fraction(2 * rng.randrange(lattice) + 1, 2 * lattice) for _ in range(m))


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    return str(path)
