"""Weak/minimal abductive and contrastive explanations, and relevancy.

An abductive explanation answers "which features, held at their instance
values, force this prediction"; a contrastive one answers "which features,
if freed, allow the prediction to change". Predicates can quantify over
the model's whole feature space (model-aware) or over a finite sample of
its behavior (model-agnostic). The two explanation families are each
other's minimal hitting sets, which is how the abductive side is
enumerated here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Union

from .errors import PreconditionError, ValidationError
from .models import (
    BoxPiecewiseModel,
    Point,
    Value,
    _affine_extremes,
    enumerate_points,
    labelled_points,
    predict,  # noqa: F401  (looked up here by the benchmark's tracer)
)
from .similarity import (
    CLASS_EQUALITY,
    ExplanationProblem,
    similar,
    similar_value,
)

FeatureSet = tuple  # canonical: sorted tuple of 1-based feature ids


class ConstantOnUniverseWarning(UserWarning):
    """No point of the universe is output-distinguishable from the instance."""


@dataclass(frozen=True)
class Sample:
    """Observed model behavior: points d_j with their predictions p_j."""

    rows: tuple[Point, ...]
    predictions: tuple[Value, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValidationError("a sample must contain at least one row")
        if len(self.rows) != len(self.predictions):
            raise ValidationError("sample rows and predictions differ in length")

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ModelAware:
    """Quantify over the model's entire feature space."""


@dataclass(frozen=True)
class ModelAgnostic:
    """Quantify over the rows of a sample only."""

    sample: Sample


Universe = Union[ModelAware, ModelAgnostic]
MODEL_AWARE = ModelAware()


def canonical(features: Iterable[int]) -> FeatureSet:
    return tuple(sorted(set(features)))


# ---------------------------------------------------------------------------
# Quantifier predicates
# ---------------------------------------------------------------------------

def is_waxp(problem: ExplanationProblem, features: Iterable[int],
            universe: Universe = MODEL_AWARE) -> bool:
    """Does fixing ``features`` at the instance values force an output
    indistinguishable from the instance prediction, everywhere in the
    universe?"""
    fixed = frozenset(features)
    _check_feature_ids(problem, fixed)
    if isinstance(universe, ModelAgnostic):
        v = problem.instance.point
        for row, pred in zip(universe.sample.rows, universe.sample.predictions):
            if all(row[i - 1] == v[i - 1] for i in fixed):
                if not similar_value(problem, pred):
                    return False
        return True  # vacuously true when no row matches
    if isinstance(problem.model, BoxPiecewiseModel):
        return _box_waxp(problem, fixed)
    constraint = {i: problem.instance.point[i - 1] for i in fixed}
    for point in enumerate_points(problem.model, constraint):
        if not similar(problem, point):
            return False
    return True


def is_wcxp(problem: ExplanationProblem, features: Iterable[int],
            universe: Universe = MODEL_AWARE) -> bool:
    """Can the output be made distinguishable by changing only
    ``features``? Exactly the complement of is_waxp on the remaining
    (fixed) features."""
    freed = frozenset(features)
    _check_feature_ids(problem, freed)
    rest = frozenset(problem.feature_ids) - freed
    return not is_waxp(problem, rest, universe)


def _box_waxp(problem: ExplanationProblem, fixed: frozenset[int]) -> bool:
    """Box-piecewise quantifier: on every cell slice compatible with the
    fixed coordinates, the affine's closure extremes must stay inside the
    similarity band. Extremes on open faces are approached by interior
    points, so using the closure is exact for both quantifiers."""
    model = problem.model
    v = problem.instance.point
    p = Fraction(problem.instance.prediction)
    if problem.similarity.mode == CLASS_EQUALITY:
        band_lo, band_hi = p, p
    else:
        band_lo, band_hi = p - problem.similarity.delta, p + problem.similarity.delta
    for cell in model.cells:
        pinned = _pin_cell(model, cell, v, fixed)
        if pinned is None:
            continue
        lo, hi = _affine_extremes(pinned)
        if lo < band_lo or hi > band_hi:
            return False
    return True


def _pin_cell(model: BoxPiecewiseModel, cell, v: Point, fixed: frozenset[int]):
    """Restrict a cell to x_S = v_S; returns a degenerate-box cell whose
    pinned axes collapse to the instance value, or None if the slice is
    empty under the half-open membership rule."""
    box = list(cell.box)
    for fid in fixed:
        j = fid - 1
        lo, hi = cell.box[j]
        top = model.space.domain(fid).hi
        x = Fraction(v[j])
        if x < lo or x > hi or (x == hi and hi != top):
            return None
        box[j] = (x, x)
    return type(cell)(tuple(box), cell.intercept, cell.coeffs)


def _check_feature_ids(problem: ExplanationProblem, features: frozenset[int]) -> None:
    unknown = features - set(problem.feature_ids)
    if unknown:
        raise ValidationError(f"unknown feature ids {sorted(unknown)}")


def agnostic_support(problem: ExplanationProblem, sample: Sample,
                     features: Iterable[int]) -> int:
    """How many sample rows match x_S = v_S; zero means a vacuous check."""
    fixed = frozenset(features)
    v = problem.instance.point
    return sum(1 for row in sample.rows
               if all(row[i - 1] == v[i - 1] for i in fixed))


# ---------------------------------------------------------------------------
# Minimality extraction and enumeration
# ---------------------------------------------------------------------------

def extract_axp(problem: ExplanationProblem, seed: Iterable[int] | None = None,
                universe: Universe = MODEL_AWARE) -> FeatureSet:
    """Shrink a sufficient feature set to a subset-minimal one by deletion,
    attempting removals in ascending feature id order."""
    seed_set = canonical(problem.feature_ids if seed is None else seed)
    if not is_waxp(problem, seed_set, universe):
        raise PreconditionError(f"seed {seed_set} is not a weak abductive explanation")
    current = set(seed_set)
    for i in seed_set:
        if is_waxp(problem, current - {i}, universe):
            current.remove(i)
    return canonical(current)


def extract_cxp(problem: ExplanationProblem, seed: Iterable[int] | None = None,
                universe: Universe = MODEL_AWARE) -> FeatureSet:
    """Dual of extract_axp: shrink a set whose freeing changes the output."""
    seed_set = canonical(problem.feature_ids if seed is None else seed)
    if not is_wcxp(problem, seed_set, universe):
        raise PreconditionError(f"seed {seed_set} is not a weak contrastive explanation")
    current = set(seed_set)
    for i in seed_set:
        if is_wcxp(problem, current - {i}, universe):
            current.remove(i)
    return canonical(current)


def enumerate_cxps(problem: ExplanationProblem,
                   universe: Universe = MODEL_AWARE) -> tuple[FeatureSet, ...]:
    """All subset-minimal contrastive explanations.

    Exhaustive lattice scan in order of increasing cardinality; since the
    weak predicate is monotone, a set passing the predicate with no
    previously found explanation inside it is itself minimal.
    """
    ids = problem.feature_ids
    found: list[FeatureSet] = []
    for size in range(1, len(ids) + 1):
        for combo in combinations(ids, size):
            if any(set(c) <= set(combo) for c in found):
                continue
            if is_wcxp(problem, combo, universe):
                found.append(combo)
    if not found:
        warnings.warn("model output is constant on the universe: no contrastive "
                      "explanations exist", ConstantOnUniverseWarning, stacklevel=2)
    return tuple(found)


def axps_from_cxps(cxps: Iterable[FeatureSet]) -> tuple[FeatureSet, ...]:
    """All minimal hitting sets of the contrastive family, which are
    exactly the abductive explanations (and vice versa)."""
    family = [frozenset(c) for c in cxps]
    if not family:
        raise PreconditionError("duality is undefined for an empty explanation family")
    if any(not s for s in family):
        raise PreconditionError("explanation families cannot contain the empty set")
    hits = minimal_hitting_sets(family)
    return tuple(sorted((canonical(h) for h in hits), key=lambda t: (len(t), t)))


def minimal_hitting_sets(family: Iterable[frozenset]) -> set[frozenset]:
    """Enumerate every minimal hitting set of a family of non-empty sets.

    Recursive branching on the first set not yet hit, pruning branches that
    already contain a recorded solution, then a final minimality filter.
    """
    sets = [frozenset(s) for s in family]
    results: set[frozenset] = set()

    def recurse(current: frozenset) -> None:
        if any(r <= current for r in results):
            return
        unhit = next((s for s in sets if not (s & current)), None)
        if unhit is None:
            results.add(current)
            return
        for element in sorted(unhit):
            recurse(current | {element})

    recurse(frozenset())
    return {r for r in results if not any(o < r for o in results)}


def enumerate_axps(problem: ExplanationProblem,
                   universe: Universe = MODEL_AWARE) -> tuple[FeatureSet, ...]:
    """All abductive explanations, obtained by dualizing the contrastive
    family."""
    return axps_from_cxps(enumerate_cxps(problem, universe))


def relevant_features(problem: ExplanationProblem,
                      universe: Universe = MODEL_AWARE) -> FeatureSet:
    """Features occurring in some abductive explanation; these are exactly
    the features occurring in some contrastive explanation, so the cheaper
    contrastive union is used."""
    cxps = enumerate_cxps(problem, universe)
    out: set[int] = set()
    for c in cxps:
        out.update(c)
    return canonical(out)


def full_space_sample(model) -> Sample:
    """The exhaustive sample: every point of a discrete space with its
    prediction."""
    rows, predictions = zip(*labelled_points(model))
    return Sample(rows, predictions)
