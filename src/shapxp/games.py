"""Cooperative games over features and exact Shapley values.

Two concrete games are provided: the expected-value game, whose
characteristic function is the conditional expectation of the model output
with a coalition's features fixed, and the sufficiency game, whose
characteristic function is 1 exactly when the coalition is a weak
abductive explanation. The first is the classical feature-attribution
game; the second is a monotone 0/1 (simple) game whose Shapley values are
zero precisely on irrelevant features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import compress, permutations, product
from math import factorial, lcm
from operator import add, eq, or_
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .errors import PreconditionError, SizeLimitError, ValidationError
from .explanations import (
    MODEL_AWARE,
    ModelAgnostic,
    Universe,
    is_waxp,
    relevant_features,
)
from .models import (
    Instance,
    TabularModel,
    TreeLeaf,
    TreeModel,
    Value,
    conditional_expectation,
    labelled_points,
    output_range,
)
from .similarity import CLASS_EQUALITY, ExplanationProblem, similar_value

EXACT_GUARD = 24      # 2^m subset evaluations
PERMUTATION_GUARD = 10  # m! permutation evaluations

EXPECTED_VALUE = "expected"
WAXP_BASED = "waxp"
CUSTOM = "custom"


# All 2^m values of a game: integer numerators indexed by coalition mask
# (bit k stands for players[k]) over one common positive denominator.
CoalitionTable = tuple[list[int], int]


@dataclass
class Game:
    """A set of players and a characteristic function on coalitions.

    ``value`` evaluates one coalition and memoizes it per game instance;
    the sampling estimator and the all-permutations oracle read values this
    way. The function must be pure. Under concurrent use the worst case is
    a duplicate evaluation of the same coalition, never an inconsistent
    result (dict updates are atomic).

    ``table`` returns the whole coalition table, which is what exact
    Shapley values need. A game with a ``kernel`` builds it in one pass
    over its labelled points, only when asked; any other game evaluates
    ``value`` on each of the 2^m coalitions.

    ``marginal_bound`` is an upper bound on |nu(S+i) - nu(S)| used by the
    sampling estimator; pass one explicitly for custom games.
    """

    players: tuple[int, ...]
    charfn: Callable[[frozenset[int]], Fraction]
    tag: str = CUSTOM
    marginal_bound: Optional[Fraction] = None
    kernel: Optional[Callable[[], CoalitionTable]] = field(
        default=None, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def value(self, coalition: Iterable[int]) -> Fraction:
        key = frozenset(coalition)
        cached = self._cache.get(key)
        if cached is None:
            cached = Fraction(self.charfn(key))
            self._cache[key] = cached
        return cached

    def table(self) -> CoalitionTable:
        """nu(S) for every coalition mask S, as (numerators, denominator)."""
        if self.kernel is not None:
            return self.kernel()
        values = [
            self.value(p for k, p in enumerate(self.players) if mask >> k & 1)
            for mask in range(1 << self.m)
        ]
        denominator = lcm(*(v.denominator for v in values))
        return [v.numerator * (denominator // v.denominator) for v in values], denominator

    @property
    def m(self) -> int:
        return len(self.players)


@dataclass(frozen=True)
class ScoreVector:
    """Per-feature attribution scores, tagged with game and method."""

    scores: tuple[Fraction, ...]  # index i holds the score of feature i+1
    game: str
    method: str  # "exact" or "cgt"

    def score(self, feature_id: int) -> Fraction:
        return self.scores[feature_id - 1]

    def total(self) -> Fraction:
        return sum(self.scores, Fraction(0))

    @property
    def m(self) -> int:
        return len(self.scores)


# ---------------------------------------------------------------------------
# Characteristic functions
# ---------------------------------------------------------------------------

def cf_expected(problem: ExplanationProblem, features: Iterable[int]) -> Fraction:
    """Conditional expected model output with the coalition's features
    fixed at the instance values."""
    return conditional_expectation(problem.model, problem.instance, features)


def cf_waxp(problem: ExplanationProblem, features: Iterable[int],
            universe: Universe = MODEL_AWARE) -> int:
    """1 if fixing the coalition forces an indistinguishable output, else 0."""
    return 1 if is_waxp(problem, features, universe) else 0


def expected_game(problem: ExplanationProblem) -> Game:
    lo, hi = output_range(problem.model)
    discrete = problem.model.space.all_discrete()
    return Game(
        players=problem.feature_ids,
        charfn=lambda s: cf_expected(problem, s),
        tag=EXPECTED_VALUE,
        marginal_bound=hi - lo,
        kernel=partial(_expected_table, problem) if discrete else None,
    )


def waxp_game(problem: ExplanationProblem, universe: Universe = MODEL_AWARE) -> Game:
    has_points = isinstance(universe, ModelAgnostic) or problem.model.space.all_discrete()
    return Game(
        players=problem.feature_ids,
        charfn=lambda s: Fraction(cf_waxp(problem, s, universe)),
        tag=WAXP_BASED,
        marginal_bound=Fraction(1),
        kernel=partial(_waxp_table, problem, universe) if has_points else None,
    )


# ---------------------------------------------------------------------------
# Coalition tables
# ---------------------------------------------------------------------------
#
# A labelled point p agrees with the instance v on the features of its
# agreement mask A(p) = {j : p_j = v_j}, and it satisfies x_S = v_S exactly
# when S is a subset of A(p). So a histogram of the points by agreement
# mask, folded over supersets, holds for every coalition S an aggregate of
# exactly the points with x_S = v_S: O(|points| * m + m * 2^m) work for all
# 2^m coalitions at once.

def _masked_outputs(problem: ExplanationProblem,
                    universe: Universe) -> Iterator[tuple[int, Value]]:
    """(agreement mask, output) of every labelled point: each row of the
    sample under a model-agnostic universe, else each point of the model's
    discrete space."""
    v = problem.instance.point
    if isinstance(universe, ModelAgnostic):
        bits = [1 << j for j in range(len(v))]
        sample = universe.sample
        return ((sum(compress(bits, map(eq, row, v))), y)
                for row, y in zip(sample.rows, sample.predictions))
    # labelled_points runs in lexicographic order, and so does this product
    # of per-feature agreement bits.
    axes = [[1 << j if x == v[j] else 0 for x in f.domain.values]
            for j, f in enumerate(problem.model.space.features)]
    return zip(map(sum, product(*axes)), (y for _, y in labelled_points(problem.model)))


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


def _expected_table(problem: ExplanationProblem) -> CoalitionTable:
    """The expected-value game of a discrete model, for every coalition.

    With L the least common denominator of the model's outputs, the folded
    sums f[S] of y * L satisfy nu(S) = f[S] / (L * prod_{j not in S} |D_j|),
    which over the common denominator L * |space| has the numerator
    f[S] * prod_{j in S} |D_j|."""
    space = problem.model.space
    outputs = list(_masked_outputs(problem, MODEL_AWARE))
    scale = lcm(*{y.denominator for _, y in outputs})  # outputs are int or Fraction
    sums = [0] * (1 << space.m)
    for mask, y in outputs:
        sums[mask] += y.numerator * (scale // y.denominator)
    _fold_supersets(sums, add)
    inside = [1]  # prod_{j in S} |D_j|, one feature at a time
    for feature in space.features:
        size = len(feature.domain.values)
        inside += [n * size for n in inside]
    return [f * n for f, n in zip(sums, inside)], scale * inside[-1]


def _waxp_table(problem: ExplanationProblem, universe: Universe) -> CoalitionTable:
    """The sufficiency game for every coalition, over the whole discrete
    space or the rows of a sample.

    f[S] tells whether some labelled point with x_S = v_S has an output
    distinguishable from the instance's, so nu(S) = 1 - f[S]; a coalition
    that no sample row matches is vacuously sufficient."""
    dissimilar: dict = {}  # output -> not similar_value, one call per output
    found = [False] * (1 << problem.model.space.m)
    for mask, y in _masked_outputs(problem, universe):
        hit = dissimilar.get(y)
        if hit is None:
            hit = dissimilar[y] = not similar_value(problem, y)
        found[mask] |= hit
    _fold_supersets(found, or_)
    return [0 if hit else 1 for hit in found], 1


# ---------------------------------------------------------------------------
# Exact Shapley values
# ---------------------------------------------------------------------------

def shapley_exact(game: Game) -> ScoreVector:
    """Exact Shapley values by the weighted subset-sum formula.

    score(i) = sum over S not containing i of
               |S|! (m - |S| - 1)! / m! * (nu(S + i) - nu(S)).

    The game's coalition table (see :meth:`Game.table`) gives nu as integer
    numerators N over one denominator d, so each sum of
    |S|! (m - |S| - 1)! * (N[S + i] - N[S]) is an integer, divided once by
    m! * d.
    """
    m = game.m
    if m > EXACT_GUARD:
        raise SizeLimitError(f"exact computation guarded at m <= {EXACT_GUARD}, got {m}")
    numerators, denominator = game.table()
    weights = [factorial(s) * factorial(m - s - 1) for s in range(m)]
    scale = factorial(m) * denominator
    scores = []
    for k in range(m):
        bit = 1 << k
        acc = sum(weights[s.bit_count()] * (numerators[s | bit] - numerators[s])
                  for s in range(1 << m) if not s & bit)
        scores.append(Fraction(acc, scale))
    return ScoreVector(tuple(scores), game.tag, "exact")


def shapley_via_permutations(game: Game) -> ScoreVector:
    """Average marginal contribution over all m! player orders.

    Independent route to the same quantity as :func:`shapley_exact`; the
    two must agree exactly.
    """
    m = game.m
    if m > PERMUTATION_GUARD:
        raise SizeLimitError(
            f"permutation enumeration guarded at m <= {PERMUTATION_GUARD}, got {m}")
    acc = {i: Fraction(0) for i in game.players}
    for order in permutations(game.players):
        coalition: frozenset[int] = frozenset()
        prev = game.value(coalition)
        for player in order:
            coalition = coalition | {player}
            cur = game.value(coalition)
            acc[player] += cur - prev
            prev = cur
    n_orders = factorial(m)
    scores = tuple(acc[i] / n_orders for i in game.players)
    return ScoreVector(scores, game.tag, "exact")


# ---------------------------------------------------------------------------
# Score diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureCompliance:
    feature: int
    relevant: bool
    score: Fraction

    @property
    def misleading(self) -> bool:
        # A score misleads when it is zero on a relevant feature or
        # nonzero on an irrelevant one.
        return self.relevant == (self.score == 0)


@dataclass(frozen=True)
class ComplianceReport:
    entries: tuple[FeatureCompliance, ...]
    game: str

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(e.feature for e in self.entries if e.misleading)

    @property
    def compliant(self) -> bool:
        return not self.violations


def check_compliance(problem: ExplanationProblem, scores: ScoreVector,
                     universe: Universe = MODEL_AWARE) -> ComplianceReport:
    """Compare zero/nonzero scores against feature (ir)relevancy.

    A fully compliant vector is zero exactly on the features that occur in
    no abductive explanation."""
    relevant = set(relevant_features(problem, universe))
    entries = tuple(
        FeatureCompliance(i, i in relevant, scores.score(i))
        for i in problem.feature_ids
    )
    return ComplianceReport(entries, scores.game)


def check_value_independence(problem: ExplanationProblem,
                             relabel: Mapping,
                             universe: Universe = MODEL_AWARE) -> bool:
    """Do sufficiency-game scores survive an injective relabeling of the
    model's output values?

    The relabeled problem keeps the same instance point; its prediction is
    the relabeled original. True means the score vector is unchanged
    feature-by-feature (exact equality).
    """
    if problem.similarity.mode != CLASS_EQUALITY:
        raise PreconditionError("value independence is defined for class-equality similarity")
    relabeled = relabel_problem(problem, relabel)
    before = shapley_exact(waxp_game(problem, universe))
    after = shapley_exact(waxp_game(relabeled, universe))
    return before.scores == after.scores


def relabel_problem(problem: ExplanationProblem, relabel: Mapping) -> ExplanationProblem:
    """Apply an injective output-value map to a discrete model and its
    instance, preserving the feature space."""
    model = problem.model
    if isinstance(model, TabularModel):
        values = set(model.table.values())
    elif isinstance(model, TreeModel):
        values = {n.value for n in model.nodes.values() if isinstance(n, TreeLeaf)}
    else:
        raise PreconditionError("output relabeling needs a discrete-output model")
    missing = [v for v in values if v not in relabel]
    if missing:
        raise ValidationError(f"relabeling map misses output value {missing[0]!r}")
    images = [relabel[v] for v in values]
    if len(set(images)) != len(images):
        raise ValidationError("relabeling map is not injective on the model's outputs")
    kind = _kind_of(set(images))
    if isinstance(model, TabularModel):
        new_model = TabularModel(
            model.space, {pt: relabel[v] for pt, v in model.table.items()}, kind)
    else:
        new_nodes = {
            nid: TreeLeaf(relabel[n.value]) if isinstance(n, TreeLeaf) else n
            for nid, n in model.nodes.items()
        }
        new_model = TreeModel(model.space, new_nodes, model.root, kind)
    instance = Instance(problem.instance.point,
                        relabel[problem.instance.prediction])
    return ExplanationProblem(new_model, instance, problem.similarity)


def _kind_of(values: set) -> str:
    from .models import CATEGORICAL, NUMERIC
    return NUMERIC if all(isinstance(v, (int, Fraction)) for v in values) else CATEGORICAL
