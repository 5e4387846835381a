"""Weak/minimal abductive and contrastive explanations, and relevancy.

An abductive explanation answers "which features, held at their instance
values, force this prediction"; a contrastive one answers "which features,
if freed, allow the prediction to change". Predicates quantify over the
problem's universe: the model's whole feature space (model-aware) or a
finite sample of its behavior (model-agnostic). The sufficiency game, the
contrastive explanations and relevancy all read one table per problem,
:func:`sufficiency_table`, which the problem builds once; the abductive
explanations are the contrastive ones' minimal hitting sets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import compress
from operator import eq, or_
from typing import Callable, Iterable, Iterator, Mapping

from .errors import PreconditionError, SizeLimitError, ValidationError
from .models import (
    Point,
    Value,
    guard_cell_table,
    labelled_points,
    predict,  # noqa: F401  (looked up here by the benchmark's tracer)
)
from .similarity import (
    ExplanationProblem,
    similar,  # noqa: F401  (looked up here by the benchmark's tracer)
    similar_value,
)

FeatureSet = tuple  # canonical: sorted tuple of 1-based feature ids
EXACT_GUARD = 24  # 2^m subset evaluations


class ConstantOnUniverseWarning(UserWarning):
    """No point of the universe is output-distinguishable from the instance."""


@dataclass(frozen=True)
class Sample:
    """Observed model behavior: points d_j with their predictions p_j.

    A sample is a universe of its own: it answers the quantifiers that
    the model answers over its whole space, over its rows only."""

    rows: tuple[Point, ...]
    predictions: tuple[Value, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValidationError("a sample must contain at least one row")
        if len(self.rows) != len(self.predictions):
            raise ValidationError("sample rows and predictions differ in length")

    def __len__(self) -> int:
        return len(self.rows)

    def slice_outputs(self, v: Point, fixed: Iterable[int]) -> Iterator[Value]:
        """The prediction of every row with x_S = v_S."""
        axes = [i - 1 for i in fixed]
        return (y for row, y in zip(self.rows, self.predictions)
                if all(row[j] == v[j] for j in axes))

    def masked_outputs(self, v: Point) -> Iterator[tuple[int, Value]]:
        """(agreement mask with v, prediction) of every row."""
        bits = [1 << j for j in range(len(v))]
        return ((sum(compress(bits, map(eq, row, v))), y)
                for row, y in zip(self.rows, self.predictions))

    def relabel(self, mapping: Mapping) -> "Sample":
        """The same rows with each prediction y replaced by mapping[y]."""
        missing = [y for y in self.predictions if y not in mapping]
        if missing:
            raise ValidationError(f"relabeling map misses output value {missing[0]!r}")
        return Sample(self.rows, tuple(mapping[y] for y in self.predictions))


def canonical(features: Iterable[int]) -> FeatureSet:
    return tuple(sorted(set(features)))


# ---------------------------------------------------------------------------
# Quantifier predicates
# ---------------------------------------------------------------------------

def is_waxp(problem: ExplanationProblem, features: Iterable[int]) -> bool:
    """Does fixing ``features`` at the instance values force an output
    indistinguishable from the instance prediction, everywhere in the
    problem's universe: the model's whole space, or the sample's rows?
    Vacuously true when no sample row matches."""
    fixed = frozenset(features)
    _check_feature_ids(problem, fixed)
    return all(similar_value(problem, y)
               for y in problem.scope.slice_outputs(problem.instance.point, fixed))


def is_wcxp(problem: ExplanationProblem, features: Iterable[int]) -> bool:
    """Can the output be made distinguishable by changing only
    ``features``? Exactly the complement of is_waxp on the remaining
    (fixed) features."""
    freed = frozenset(features)
    _check_feature_ids(problem, freed)
    rest = frozenset(problem.feature_ids) - freed
    return not is_waxp(problem, rest)


def _check_feature_ids(problem: ExplanationProblem, features: frozenset[int]) -> None:
    unknown = features - set(problem.feature_ids)
    if unknown:
        raise ValidationError(f"unknown feature ids {sorted(unknown)}")


def agnostic_support(problem: ExplanationProblem, features: Iterable[int]) -> int:
    """How many rows of the sample match x_S = v_S; zero means a vacuous check."""
    if problem.universe is None:
        raise PreconditionError("sample support needs a model-agnostic problem")
    return sum(1 for _ in problem.universe.slice_outputs(problem.instance.point, features))


# ---------------------------------------------------------------------------
# Coalition tables
# ---------------------------------------------------------------------------
#
# A labelled point p agrees with the instance v on the features of its
# agreement mask A(p) = {j : p_j = v_j}, and it satisfies x_S = v_S exactly
# when S is a subset of A(p). So a histogram of the points by agreement
# mask, folded over supersets, holds for every coalition S an aggregate of
# exactly the points with x_S = v_S: O(|points| * m + m * 2^m) work for all
# 2^m coalitions at once. The points come from ``masked_outputs(v)`` of
# the universe: a sample's rows, or every point of a discrete model.


def _fold_supersets(table: list, op: Callable) -> None:
    """In place, table[S] becomes the op-fold of table[T] over every
    superset T of S (the zeta transform): m passes over 2^m entries."""
    size = len(table)
    half = 1
    while half < size:
        for lo in range(0, size, 2 * half):
            # masks lo..lo+half-1 lack this bit; the next half are them with it
            table[lo:lo + half] = map(op, table[lo:lo + half],
                                      table[lo + half:lo + 2 * half])
        half *= 2


def sufficiency_table(problem: ExplanationProblem) -> list[int]:
    """The sufficiency game for every coalition mask S (bit k is feature
    k+1): nu(S) = 1 exactly when S is a weak abductive explanation. Built
    on the problem's first call and kept, so callers must not mutate it."""
    if problem._sufficiency is None:
        object.__setattr__(problem, "_sufficiency", _build_sufficiency_table(problem))
    return problem._sufficiency


def _build_sufficiency_table(problem: ExplanationProblem) -> list[int]:
    """Over the rows of a sample universe, or over the whole space of a
    discrete model, f[S] tells whether some labelled point with x_S = v_S
    has an output distinguishable from the instance's, so nu(S) = 1 - f[S];
    a coalition that no sample row matches is vacuously sufficient. A box
    model takes one is_waxp call per coalition, guarded at POINT_GUARD cell
    visits."""
    m = problem.model.space.m
    if m > EXACT_GUARD:
        raise SizeLimitError(f"exact computation guarded at m <= {EXACT_GUARD}, got {m}")
    if problem.universe is None and not problem.model.space.all_discrete():
        guard_cell_table(problem.model)
        return [int(is_waxp(problem, [i for i in problem.feature_ids if mask >> i - 1 & 1]))
                for mask in range(1 << m)]
    dissimilar: dict = {}  # output -> not similar_value, one call per output
    found = [False] * (1 << m)
    for mask, y in problem.scope.masked_outputs(problem.instance.point):
        hit = dissimilar.get(y)
        if hit is None:
            hit = dissimilar[y] = not similar_value(problem, y)
        found[mask] |= hit
    _fold_supersets(found, or_)
    return [0 if hit else 1 for hit in found]


# ---------------------------------------------------------------------------
# Minimality extraction and enumeration
# ---------------------------------------------------------------------------

def extract_axp(problem: ExplanationProblem, seed: Iterable[int] | None = None) -> FeatureSet:
    """Shrink a sufficient feature set to a subset-minimal one by deletion,
    attempting removals in ascending feature id order."""
    return _shrink(problem, seed, is_waxp, "abductive")


def extract_cxp(problem: ExplanationProblem, seed: Iterable[int] | None = None) -> FeatureSet:
    """Dual of extract_axp: shrink a set whose freeing changes the output."""
    return _shrink(problem, seed, is_wcxp, "contrastive")


def _shrink(problem: ExplanationProblem, seed: Iterable[int] | None,
            holds: Callable, kind: str) -> FeatureSet:
    """Deletion loop of both extractions: drop each seed feature in
    ascending id order while ``holds`` stays true of the rest."""
    seed_set = canonical(problem.feature_ids if seed is None else seed)
    if not holds(problem, seed_set):
        raise PreconditionError(f"seed {seed_set} is not a weak {kind} explanation")
    current = set(seed_set)
    for i in seed_set:
        if holds(problem, current - {i}):
            current.remove(i)
    return canonical(current)


def enumerate_cxps(problem: ExplanationProblem) -> tuple[FeatureSet, ...]:
    """All subset-minimal contrastive explanations, by size, then ids."""
    return _cxps_in_table(sufficiency_table(problem), problem.feature_ids)


def _cxps_in_table(table: list[int], ids: tuple[int, ...]) -> tuple[FeatureSet, ...]:
    """The minimal contrastive explanations read off a sufficiency table
    over the players ``ids``: freeing C allows a distinguishable output
    exactly when its complement R is not sufficient, and since nu is
    monotone, C is minimal when R plus any one feature of C is."""
    table = table[:-1] + [1]  # freeing nothing is never a contrastive explanation
    found = []
    for rest, sufficient in enumerate(table):
        if sufficient:
            continue
        freed = [i for i in ids if not rest >> i - 1 & 1]
        if all(table[rest | 1 << i - 1] for i in freed):
            found.append(tuple(freed))
    if not found:
        warnings.warn("model output is constant on the universe: no contrastive "
                      "explanations exist", ConstantOnUniverseWarning, stacklevel=3)
    return tuple(sorted(found, key=lambda c: (len(c), c)))


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


def enumerate_axps(problem: ExplanationProblem) -> tuple[FeatureSet, ...]:
    """All abductive explanations, obtained by dualizing the contrastive
    family."""
    return axps_from_cxps(enumerate_cxps(problem))


def relevant_features(problem: ExplanationProblem) -> FeatureSet:
    """Features occurring in some abductive explanation; these are exactly
    the features occurring in some contrastive explanation, so the union
    of the CXps is used and no hitting sets are needed."""
    table = sufficiency_table(problem)
    return canonical(i for c in _cxps_in_table(table, problem.feature_ids) for i in c)


def full_space_sample(model) -> Sample:
    """The exhaustive sample: every point of a discrete space with its
    prediction."""
    rows, predictions = zip(*labelled_points(model))
    return Sample(rows, predictions)
