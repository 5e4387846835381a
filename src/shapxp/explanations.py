"""Weak/minimal abductive and contrastive explanations, and relevancy.

An abductive explanation answers "which features, held at their instance
values, force this prediction"; a contrastive one answers "which features,
if freed, allow the prediction to change". Predicates quantify over the
problem's universe: the model's whole feature space (model-aware) or a
finite sample of its behavior (model-agnostic).

Sufficiency has one source, the problem's contrastive basis
(:func:`contrastive_basis`): the minimal contrastive explanations, found
among the disagreement masks the problem's scope yields, built once per
problem. Enumeration, relevancy, compliance and the sufficiency predicate
on a tree or a sample read it; the abductive explanations are its minimal
hitting sets, and the sufficiency game's table (:func:`sufficiency_table`)
is its closure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import compress
from operator import ne, or_
from typing import Callable, Iterable, Iterator, Mapping

from .errors import PreconditionError, SizeLimitError, ValidationError
from .models import (
    POINT_GUARD,
    Point,
    TreeModel,
    Value,
    guard_cell_visits,
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
# Set comparisons one run may make against a contrastive basis: a
# hitting-set search over more than EXACT_GUARD features (a narrower
# family is bounded by its width), the minimality filter of a basis too
# wide for the closure route, or CGT's sufficiency checks on a tree.
# One comparison costs 0.2-0.3 us (Python 3.11, x86-64), so about a second.
BASIS_GUARD = 2 ** 22


class ConstantOnUniverseWarning(UserWarning):
    """No point of the universe is output-distinguishable from the instance."""


@dataclass(frozen=True)
class Sample:
    """Observed model behavior: points d_j with their predictions p_j.

    A sample is a universe of its own: it answers the quantifiers that
    the model answers over its whole space, over its rows only. Rows
    compare with a point through int codes: ``codes`` holds each row's and
    ``index`` each field's value -> code map, the space's domain positions
    from the loader, else first appearances. A value the index lacks codes
    to -1, which no row has."""

    rows: tuple[Point, ...]
    predictions: tuple[Value, ...]
    codes: tuple[tuple[int, ...], ...] | None = field(default=None, repr=False, compare=False)
    index: tuple[dict, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.rows:
            raise ValidationError("a sample must contain at least one row")
        if len(self.rows) != len(self.predictions):
            raise ValidationError("sample rows and predictions differ in length")
        if self.codes is None:
            index = tuple({} for _ in range(max(map(len, self.rows))))
            shared = {}  # equal rows share one codes tuple
            codes = []
            for row in self.rows:
                c = tuple(col.setdefault(x, len(col)) for col, x in zip(index, row))
                codes.append(shared.setdefault(c, c))
            object.__setattr__(self, "codes", tuple(codes))
            object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.rows)

    def _coded(self, v: Point) -> list[int]:
        return [col.get(x, -1) for col, x in zip(self.index, v)]

    def slice_outputs(self, v: Point, fixed: Iterable[int]) -> Iterator[Value]:
        """The prediction of every row with x_S = v_S."""
        axes = [i - 1 for i in fixed]
        coded = self._coded(v)
        want = [coded[j] for j in axes]
        return (y for codes, y in zip(self.codes, self.predictions)
                if [codes[j] for j in axes] == want)

    def disagreements(self, v: Point, dissimilar: Callable[[Value], bool]) -> Iterator[int]:
        """The disagreement mask with v (bit j: row_j != v_j) of every
        distinct row whose prediction is ``dissimilar``: rows are told apart
        by the identity of their codes and prediction, hashing no value."""
        coded = self._coded(v)
        bits = [1 << j for j in range(len(v))]
        distinct = {(id(codes), id(y)): (codes, y)
                    for codes, y in zip(self.codes, self.predictions)}
        return (sum(compress(bits, map(ne, codes, coded)))
                for codes, y in distinct.values() if dissimilar(y))

    def relabel(self, mapping: Mapping) -> "Sample":
        """The same rows with each prediction y replaced by mapping[y]."""
        missing = [y for y in self.predictions if y not in mapping]
        if missing:
            raise ValidationError(f"relabeling map misses output value {missing[0]!r}")
        return Sample(self.rows, tuple(mapping[y] for y in self.predictions),
                      self.codes, self.index)


def canonical(features: Iterable[int]) -> FeatureSet:
    return tuple(sorted(set(features)))


def _ids(mask: int) -> FeatureSet:
    """The feature ids of a coalition bitmask, ascending."""
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


# ---------------------------------------------------------------------------
# Quantifier predicates
# ---------------------------------------------------------------------------

def is_waxp(problem: ExplanationProblem, features: Iterable[int]) -> bool:
    """Does fixing ``features`` at the instance values force an output
    indistinguishable from the instance prediction, everywhere in the
    problem's universe: the model's whole space, or the sample's rows?
    Vacuously true when no sample row matches. On a tree or a sample it
    holds exactly when the features meet every set of the contrastive
    basis; tabular and box models quantify over the slice."""
    fixed = frozenset(features)
    _check_feature_ids(problem, fixed)
    if _walks_basis(problem):
        mask = sum(1 << i - 1 for i in fixed)
        return all(b & mask for b in contrastive_basis(problem))
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
# The contrastive basis
# ---------------------------------------------------------------------------
#
# A point p disagrees with the instance v on the features of its
# disagreement mask D(p) = {j : p_j != v_j}, and freeing C lets p be
# reached from v exactly when D(p) is a subset of C. So C is a weak
# contrastive explanation exactly when it holds the mask of some point with
# a distinguishable output, and the minimal contrastive explanations are
# the inclusion-minimal such masks: the basis. A fixed set S is sufficient
# exactly when it meets every mask of the basis.


def _walks_basis(problem: ExplanationProblem) -> bool:
    """Does is_waxp read the basis? A sample's rows and a tree's leaves
    give it in one pass; a table's slice stops at its first dissimilar
    point and a box model's costs its cells, so they quantify instead."""
    return problem.universe is not None or isinstance(problem.model, TreeModel)


def _dissimilar(problem: ExplanationProblem) -> Callable[[Value], bool]:
    """Is an output distinguishable from the instance's? One similarity
    call per distinct output."""
    return cache(lambda y: not similar_value(problem, y))


def contrastive_basis(problem: ExplanationProblem) -> tuple[int, ...]:
    """The basis as coalition masks (bit k is feature k+1), in (size, ids)
    order: the minimal masks the scope's ``disagreements`` yields. It is
    (0,) when a sample labels the instance's own point otherwise, and empty
    when no point is distinguishable. Built on the first call and kept."""
    if problem._basis is None:
        masks = problem.scope.disagreements(problem.instance.point, _dissimilar(problem))
        object.__setattr__(problem, "_basis", _minimal(masks, problem.model.space.m))
    return problem._basis


def guard_sufficiency_sampling(problem: ExplanationProblem, evaluations: int) -> None:
    """Refuse, before any draw, a sampling run whose ``evaluations``
    sufficiency checks could pass BASIS_GUARD set comparisons on a tree
    (each compares its feature ids, then the basis), or POINT_GUARD cell
    visits on a box model. Others pass: a tabular slice is guarded on its
    own, and a check against a sample's basis scans its rows at most."""
    model = problem.model
    if problem.universe is None and not model.space.all_discrete():
        guard_cell_visits(model, evaluations, "sampling")
    elif problem.universe is None and isinstance(model, TreeModel) and evaluations * (
            model.space.m + len(contrastive_basis(problem))) > BASIS_GUARD:
        raise SizeLimitError(
            f"sampling guarded at {BASIS_GUARD} set comparisons: the permutations may "
            f"evaluate {evaluations} coalitions, each checked against the basis")


def _minimal(masks: Iterable[int], m: int) -> tuple[int, ...]:
    """The inclusion-minimal masks over m features, in (size, ids) order.
    Each mask, smallest first, is compared with those kept; once that has
    cost the m * 2^m steps of the closure route, which needs 2^m within
    POINT_GUARD, that route finishes. Past that width the comparisons are
    refused beyond BASIS_GUARD."""
    masks = sorted(set(masks), key=int.bit_count)
    closure = 1 << m <= POINT_GUARD
    budget = m << m if closure else BASIS_GUARD
    kept, compared = [], 0
    for mask in masks:
        compared += len(kept)
        if compared > budget:
            if not closure:
                raise SizeLimitError(f"contrastive basis over {m} features guarded "
                                     f"at {BASIS_GUARD} set comparisons")
            return _minimal_in_closure(masks, m)
        if all(k & mask != k for k in kept):
            kept.append(mask)
    return _in_order(kept)


def _minimal_in_closure(masks: Iterable[int], m: int) -> tuple[int, ...]:
    """The inclusion-minimal masks over m features, in (size, ids) order,
    read off the closure: C is minimal when its complement R is
    insufficient and R plus any one feature of C is not."""
    insufficient = _closure(masks, m)
    full = (1 << m) - 1
    bits = [1 << j for j in range(m)]
    return _in_order(
        full ^ rest for rest, hit in enumerate(insufficient)
        if hit and not any(insufficient[rest | b] for b in bits if not rest & b))


def _in_order(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(masks, key=lambda mask: (mask.bit_count(), _ids(mask))))


def _minimal_cxps(problem: ExplanationProblem) -> tuple[int, ...]:
    """The minimal contrastive explanations as masks: the basis, except
    that freeing nothing is never one, so a basis (0,), where nu is 0
    everywhere, gives every singleton."""
    basis = contrastive_basis(problem)
    if basis == (0,):
        return tuple(1 << k for k in range(problem.model.space.m))
    if not basis:
        warnings.warn("model output is constant on the universe: no contrastive "
                      "explanations exist", ConstantOnUniverseWarning, stacklevel=3)
    return basis


# ---------------------------------------------------------------------------
# Coalition tables
# ---------------------------------------------------------------------------
#
# A coalition table holds a value for every coalition mask S; a fold over
# the supersets of each S fills all 2^m of them in O(m * 2^m). The
# expected-value game folds a histogram of the points by agreement mask,
# within which x_S = v_S holds; the sufficiency table folds the complements
# of the basis masks, since S is insufficient exactly when it lies in one.


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


def _closure(masks: Iterable[int], m: int) -> list[bool]:
    """For every coalition mask S over m features: does some mask lie
    within the complement of S, so that fixing S leaves it free?"""
    full = (1 << m) - 1
    found = [False] * (1 << m)
    for mask in masks:
        found[full ^ mask] = True
    _fold_supersets(found, or_)
    return found


def sufficiency_table(problem: ExplanationProblem) -> list[int]:
    """The sufficiency game for every coalition mask S (bit k is feature
    k+1): nu(S) = 1 exactly when S is a weak abductive explanation, that
    is, when S meets every mask of the contrastive basis. Refused past
    POINT_GUARD coalitions, once the basis is built."""
    basis, m = contrastive_basis(problem), problem.model.space.m
    if 1 << m > POINT_GUARD:
        raise SizeLimitError(f"coalition table guarded at {POINT_GUARD} coalitions, got {1 << m}")
    return [0 if hit else 1 for hit in _closure(basis, m)]


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
    return tuple(map(_ids, _minimal_cxps(problem)))


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

    Depth-first branching on the first set not yet hit, pruning branches
    that already contain a recorded solution, then a final minimality
    filter. The branches live on a stack, so a hitting set may have any
    size. A family over more than EXACT_GUARD elements is refused past
    BASIS_GUARD set comparisons: k disjoint pairs have 2^k minimal hitting
    sets. A narrower one is not, as its width bounds it.
    """
    sets = [frozenset(s) for s in family]
    guard = BASIS_GUARD if len(frozenset().union(*sets)) > EXACT_GUARD else None
    results: set[frozenset] = set()
    stack, compared = [frozenset()], 0
    while stack:
        current = stack.pop()
        compared += len(results) + len(sets)
        if guard is not None and compared > guard:
            raise SizeLimitError(
                f"hitting-set enumeration over more than {EXACT_GUARD} features "
                f"guarded at {guard} set comparisons")
        if any(r <= current for r in results):
            continue
        unhit = next((s for s in sets if not (s & current)), None)
        if unhit is None:
            results.add(current)
        else:  # the smallest element's branch is popped, and finished, first
            stack.extend(current | {element} for element in sorted(unhit, reverse=True))
    return {r for r in results if not any(o < r for o in results)}


def enumerate_axps(problem: ExplanationProblem) -> tuple[FeatureSet, ...]:
    """All abductive explanations, obtained by dualizing the contrastive
    family."""
    return axps_from_cxps(enumerate_cxps(problem))


def relevant_features(problem: ExplanationProblem) -> FeatureSet:
    """Features occurring in some abductive explanation; these are exactly
    the features occurring in some contrastive explanation, so the union
    of the CXps is used and no hitting sets are needed."""
    return _ids(reduce(or_, _minimal_cxps(problem), 0))


def full_space_sample(model) -> Sample:
    """The exhaustive sample: every point of a discrete space with its
    prediction."""
    rows, predictions = zip(*labelled_points(model))
    return Sample(rows, predictions)
