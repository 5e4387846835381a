"""Weak/minimal abductive and contrastive explanations, and relevancy.

An abductive explanation answers "which features, held at their instance
values, force this prediction"; a contrastive one answers "which features,
if freed, allow the prediction to change". Predicates quantify over the
problem's universe: the model's whole feature space (model-aware) or a
finite sample of its behavior (model-agnostic).

Sufficiency has one source, the problem's contrastive basis
(:attr:`ExplanationProblem.contrastive_basis`): the minimal contrastive
explanations, found among the disagreement masks the problem's scope
yields, built once per problem. Enumeration, relevancy, compliance and
the sufficiency predicate where the scope ``reads_basis`` read it; the abductive
explanations are its minimal hitting sets, and the sufficiency game's
table (:func:`sufficiency_table`) is read off its up-closure.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cached_property, reduce
from itertools import compress, repeat
from operator import and_, contains, itemgetter, ne, or_

from .errors import NumericOutputError, PreconditionError, SizeLimitError, ValidationError
from .models import (
    NUMERIC,
    POINT_GUARD,
    Instance,
    Model,
    Point,
    Value,
    _Frozen,
    _set,
    guard_slices,
    labelled_points,
    predict,
    verdicts,
)
from .similarity import (
    Dissimilar,
    SimilarityConfig,
    similar,  # noqa: F401  (looked up here by the benchmark's tracer)
    similar_value,
)

FeatureSet = tuple  # canonical: sorted tuple of 1-based feature ids
# Set comparisons one run may make over a family of masks: the hitting-set
# search's mask operations at any width (k disjoint pairs have 2^k minimal
# hitting sets), the minimality filter of a basis too wide for the up-closure
# route, or CGT's sufficiency checks on a tree or a sample.
# One comparison costs 0.2-0.3 us (Python 3.11, x86-64), so about a second.
BASIS_GUARD = 2 ** 22


class ConstantOnUniverseWarning(UserWarning):
    """No point of the universe is output-distinguishable from the instance."""


class Sample(_Frozen):
    """Observed model behavior: points d_j with their predictions p_j.

    A sample is a universe of its own: it answers the quantifiers that
    the model answers over its whole space, over its rows only. Rows
    compare with a point value by value, identity first, so the domain's
    own objects, which the loader and ``read_point`` give, match without
    an ``__eq__`` call. Samples compare by rows and predictions."""

    __slots__ = _fields = ("rows", "predictions")
    reads_basis = True  # the rows give the contrastive basis in one pass

    def __init__(self, rows: tuple[Point, ...], predictions: tuple[Value, ...]):
        if not rows:
            raise ValidationError("a sample must contain at least one row")
        if len(rows) != len(predictions):
            raise ValidationError("sample rows and predictions differ in length")
        _set(self, "rows", rows)
        _set(self, "predictions", predictions)

    def __len__(self) -> int:
        return len(self.rows)

    def slice_outputs(self, v: Point, fixed: Iterable[int]) -> Iterator[Value]:
        """The prediction of every row with x_S = v_S: one ``itemgetter``
        takes x_S from every row, and ``contains`` compares it with v_S's
        inside a 1-tuple, identity first, as ``==`` on the bare field that
        a single axis gives has no identity shortcut."""
        axes = [i - 1 for i in fixed]
        if not axes:
            return iter(self.predictions)
        get = itemgetter(*axes)
        hits = map(contains, repeat((get(v),)), map(get, self.rows))
        return compress(self.predictions, hits)

    def disagreements(self, v: Point, dissimilar: Callable[[Value], bool]) -> Iterator[int]:
        """The disagreement mask with v (bit j: row_j != v_j) of each distinct
        row with a ``dissimilar`` prediction, first appearances first: rows are
        told apart by identity, each prediction object is tested once and
        fields compare identity first; no value is hashed."""
        bits = [1 << j for j in range(len(v))]
        full, pinned = sum(bits), [(x,) for x in v]
        hits = list(compress(self.rows, verdicts(dissimilar, self.predictions)))
        return (full ^ sum(compress(bits, map(contains, pinned, row)))
                for row in dict(zip(map(id, hits), hits)).values())

    def relabel(self, mapping: Mapping) -> "Sample":
        """The same rows with each prediction y replaced by mapping[y]."""
        missing = [y for y in self.predictions if y not in mapping]
        if missing:
            raise ValidationError(f"relabeling map misses output value {missing[0]!r}")
        return Sample(self.rows, tuple(mapping[y] for y in self.predictions))


class ExplanationProblem(_Frozen):
    """A model, a target instance, the similarity notion tying them, and
    the universe explanations quantify over: the model's whole space when
    ``universe`` is None, else a sample's rows. It keeps a ``__dict__`` for
    its cached contrastive basis."""

    _fields = ("model", "instance", "similarity", "universe")

    def __init__(self, model: Model, instance: Instance, similarity: SimilarityConfig,
                 universe: Sample | None = None):
        actual = predict(model, instance.point)
        if actual != instance.prediction:
            raise ValidationError(
                f"instance prediction {instance.prediction!r} does not match "
                f"the model output {actual!r}")
        if similarity.delta is not None and model.value_kind != NUMERIC:
            raise NumericOutputError("threshold similarity needs numeric model outputs")
        m = model.space.m
        if universe is not None and not {*map(len, universe.rows)} <= {m}:
            row = next(row for row in universe.rows if len(row) != m)
            raise ValidationError(f"sample row {row!r} does not have the model's {m} values")
        _set(self, "model", model)
        _set(self, "instance", instance)
        _set(self, "similarity", similarity)
        _set(self, "universe", universe)

    @property
    def feature_ids(self) -> tuple[int, ...]:
        return self.model.space.ids

    @property
    def scope(self) -> Model | Sample:
        """What answers the quantifiers: the sample, else the model."""
        return self.model if self.universe is None else self.universe

    @cached_property
    def contrastive_basis(self) -> tuple[int, ...]:
        """The contrastive basis (see below) as coalition masks (bit k is
        feature k+1), in (size, ids) order: the minimal masks the scope's
        ``disagreements`` yields. It is (0,) when a sample labels the
        instance's own point otherwise, and empty when no point is
        distinguishable. Built on the first read and kept."""
        masks = self.scope.disagreements(self.instance.point, _dissimilar(self))
        return _minimal(masks, self.model.space.m)


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
    Vacuously true when no sample row matches. Where the scope
    ``reads_basis`` (a tree, a sample) it holds exactly when the features
    meet every set of the basis; tables and box models quantify over slices."""
    fixed = frozenset(features)
    _check_feature_ids(problem, fixed)
    if problem.scope.reads_basis:
        mask = sum(1 << i - 1 for i in fixed)
        return all(b & mask for b in problem.contrastive_basis)
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
    """How many rows of the sample match x_S = v_S; zero means a vacuous
    check. The matches are counted as the length of one list of them."""
    if problem.universe is None:
        raise PreconditionError("sample support needs a model-agnostic problem")
    return len([*problem.universe.slice_outputs(problem.instance.point, features)])


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


def _dissimilar(problem: ExplanationProblem) -> Dissimilar:
    """Is an output distinguishable from the instance's?"""
    return Dissimilar(problem.instance.prediction, problem.similarity.delta)


def guard_sufficiency_sampling(problem: ExplanationProblem, coalitions: int,
                               run: str) -> None:
    """Refuse, before its first check, a ``run`` of sufficiency checks on
    ``coalitions`` distinct coalitions past its bound. Where is_waxp reads
    the basis, each check compares its feature ids, then every basis mask:
    BASIS_GUARD set comparisons in all. Where it quantifies over slices,
    :func:`~shapxp.models.guard_slices` charges them."""
    if not problem.scope.reads_basis:
        guard_slices(problem.model, coalitions, run)
    elif coalitions * (problem.model.space.m + len(problem.contrastive_basis)) > BASIS_GUARD:
        raise SizeLimitError(
            f"{run} guarded at {BASIS_GUARD} set comparisons: {coalitions} coalitions "
            f"may be evaluated, each checked against the basis")


def _minimal(masks: Iterable[int], m: int) -> tuple[int, ...]:
    """The inclusion-minimal masks over m features, in (size, ids) order.
    Each mask, smallest first, is compared with those kept, all of them in
    one C-level pass (k & mask != k for each kept k); once that has
    cost 2^m comparisons, and 2^m is within POINT_GUARD, they are read off
    the masks' up-closure U instead: the minimal masks are U less every
    coalition one feature larger than one in U. Past that width the
    comparisons are refused beyond BASIS_GUARD."""
    masks = sorted(set(masks), key=int.bit_count)
    closure = 1 << m <= POINT_GUARD
    budget = 1 << m if closure else BASIS_GUARD
    kept, compared = [], 0
    for mask in masks:
        compared += len(kept)
        if compared > budget:
            if not closure:
                raise SizeLimitError(f"contrastive basis over {m} features guarded "
                                     f"at {BASIS_GUARD} set comparisons")
            closed = _up_closure(masks, m)
            above = reduce(or_, ((closed & low) << half for half, low in _lows(m)), 0)
            digits = format(closed & ~above, f"0{1 << m}b").encode()  # coalition 2^m - 1 first
            return _in_order(compress(reversed(range(1 << m)),
                                      digits.translate(bytes.maketrans(b"01", b"\0\1"))))
        if all(map(ne, map(and_, kept, repeat(mask)), kept)):
            kept.append(mask)
    return _in_order(kept)


def _in_order(masks: Iterable[int]) -> tuple[int, ...]:
    # By size, then ids: among masks of one size, reversed binary numerals descend as ids ascend.
    return tuple(sorted(sorted(masks, key=lambda mask: f"{mask:b}"[::-1], reverse=True),
                        key=int.bit_count))


def _minimal_cxps(problem: ExplanationProblem) -> tuple[int, ...]:
    """The minimal contrastive explanations as masks: the basis, except
    that freeing nothing is never one, so a basis (0,), where nu is 0
    everywhere, gives every singleton."""
    basis = problem.contrastive_basis
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
# The sufficiency game is 0/1, so its table is a set of coalitions: one int
# whose bit S stands for coalition S. S is insufficient exactly when its
# complement contains a basis mask, that is, when the complement lies in
# the basis's up-closure, which m whole-int steps build.


def _lows(m: int) -> Iterator[tuple[int, int]]:
    """For each feature k, 2^k and the coalitions over m features without
    k, as an int whose bit S is set for coalition S: runs of 2^k ones and zeros."""
    size = 1 << m
    for k in range(m):
        half = 1 << k
        low = (1 << half) - 1
        width = 2 * half
        while width < size:  # doubled, as dividing out the runs is quadratic
            low |= low << width
            width *= 2
        yield half, low


def _up_closure(masks: Iterable[int], m: int) -> int:
    """The coalitions over m features that contain some mask, as an int
    whose bit S is set for coalition S. Each feature k in turn adds, to
    every coalition without k in the set, that coalition with k."""
    size = 1 << m
    found = bytearray((size + 7) // 8)
    for mask in masks:
        found[mask >> 3] |= 1 << (mask & 7)
    closed = int.from_bytes(found, "little")
    for half, low in _lows(m):
        closed |= (closed & low) << half
    return closed


def sufficiency_table(problem: ExplanationProblem) -> list[int]:
    """The sufficiency game for every coalition mask S (bit k is feature
    k+1): nu(S) = 1 exactly when S is a weak abductive explanation, that
    is, when S meets every mask of the contrastive basis, so that bit
    full ^ S of the basis's up-closure is clear. Written from its top bit,
    that bit is the closure's digit S. Its 2^m entries are bounded by the
    caller, :meth:`~shapxp.games.Game.table`."""
    m = problem.model.space.m
    digits = format(_up_closure(problem.contrastive_basis, m), f"0{1 << m}b")
    return list(digits.encode().translate(bytes.maketrans(b"01", b"\1\0")))


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
    """Every minimal hitting set of a family of non-empty sets, by MMCS
    (Murakami and Uno, 2014) on a stack: branch on the first set not yet
    hit. A child bars the elements its elder siblings added, so no set is
    reached twice, and lives while each chosen element hits a set that no
    other one hits, so every set reached is minimal. A node of c children
    costs (c + 1) * (chosen + 1) mask operations, refused past BASIS_GUARD."""
    sets = [frozenset(s) for s in family]
    hits = {}  # element -> mask of the sets it hits
    for i, s in enumerate(sets):
        hits.update({element: hits.get(element, 0) | 1 << i for element in s})
    results, charged = set(), 0
    stack = [((), (), (1 << len(sets)) - 1, frozenset())]  # chosen, private, unhit, barred
    while stack:
        chosen, private, unhit, barred = stack.pop()
        if not unhit:
            results.add(frozenset(chosen))
            continue
        branch = sets[(unhit & -unhit).bit_length() - 1] - barred
        charged += (len(branch) + 1) * (len(chosen) + 1)
        if charged > BASIS_GUARD:
            raise SizeLimitError(f"hitting-set search guarded at {BASIS_GUARD} mask operations")
        for element in branch:
            hit = hits[element]
            kept = [p & ~hit for p in private]  # each chosen element's private sets
            if all(kept):
                stack.append((chosen + (element,), (*kept, unhit & hit), unhit & ~hit, barred))
            barred |= {element}
    return results


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
