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

from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import partial
from itertools import islice, permutations
from math import factorial
from operator import add, mul

from .errors import NumericOutputError, PreconditionError, SizeLimitError, ValidationError
from .explanations import (
    ExplanationProblem,
    _sufficient,
    guard_sufficiency_sampling,
    is_waxp,
    relevant_features,
    sufficiency_table,
)
from .models import (
    NUMERIC,
    POINT_GUARD,
    Instance,
    _Frozen,
    _over_lcd,
    _set,
    conditional_expectation,
    guard_slices,
    output_range,
)

PERMUTATION_GUARD = 10  # m! permutation evaluations

EXPECTED_VALUE = "expected"
WAXP_BASED = "waxp"
CUSTOM = "custom"


# All 2^m values of a game: integer numerators indexed by coalition mask
# (bit k stands for players[k]) over one common positive denominator.
CoalitionTable = tuple[list[int], int]


class Game(_Frozen):
    """A set of players and a characteristic function on coalitions.

    ``charfn`` takes a coalition as its player bitmask (bit k stands for
    ``players[k]``, as in the coalition table) and returns a number, an
    int, bool or Fraction or any number with ``as_integer_ratio``, which
    ``at(mask)`` memoizes as returned per game instance under that mask;
    ``value`` reads the same memo by player ids, as a Fraction. Player ids
    must be distinct. The sampling estimator and the all-permutations
    oracle read ``at`` for the coalitions they touch, or the estimator
    reads ``table`` once when its draws touched all 2^m, whatever the
    game, so the memo and the table must agree. The function must be pure.

    ``table`` returns the whole coalition table, which is what exact
    Shapley values need, and refuses more than POINT_GUARD coalitions
    before any work. A game with a ``kernel`` builds it at once, only
    when asked: the expected-value game's kernel is its model's
    ``expected_table`` at the instance, on every model kind, and the
    sufficiency game's reads the up-closure of its problem's contrastive
    basis on each read (see :func:`~shapxp.explanations.sufficiency_table`).
    Any other game, a custom one, evaluates ``at`` on each of the 2^m
    coalitions.

    ``guard(coalitions, run)``, when given, is asked before a run that may
    evaluate ``coalitions`` distinct coalitions: by ``table`` when the game
    has no kernel, and by the sampling estimator before its first draw. It
    raises SizeLimitError when evaluating that many would run unbounded.

    ``marginal_bound`` is an upper bound on |nu(S+i) - nu(S)| used by the
    sampling estimator, or a function that computes it, called only when
    the estimator asks; pass one explicitly for custom games.

    A game compares by its players, function, tag and bound. Unlike the
    package's other classes its attributes may be reassigned, so it has
    no hash.
    """

    __slots__ = ("players", "charfn", "tag", "marginal_bound", "kernel", "guard", "_cache")
    _fields = ("players", "charfn", "tag", "marginal_bound")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __reduce__ = object.__reduce__
    __hash__ = None

    def __init__(self, players: tuple[int, ...], charfn: Callable[[int], Fraction],
                 tag: str = CUSTOM,
                 marginal_bound: Fraction | Callable[[], Fraction] | None = None,
                 kernel: Callable[[], CoalitionTable] | None = None,
                 guard: Callable[[int, str], None] | None = None):
        if len(set(players)) != len(players):
            raise ValidationError(f"repeated player ids in {players}")
        self.players, self.charfn, self.tag = players, charfn, tag
        self.marginal_bound, self.kernel, self.guard = marginal_bound, kernel, guard
        self._cache = {}  # mask -> value

    def at(self, mask: int):
        """nu of the coalition {players[k] : bit k of mask is set}, as charfn returns it."""
        cached = self._cache.get(mask)
        if cached is None:
            cached = self._cache[mask] = self.charfn(mask)
        return cached

    def value(self, coalition: Iterable[int]) -> Fraction:
        """nu of a coalition given by player ids; repeats count once."""
        ids = set(coalition)
        unknown = ids.difference(self.players)
        if unknown:
            raise ValidationError(f"unknown player ids {sorted(unknown)}")
        return Fraction(self.at(sum(1 << k for k, p in enumerate(self.players) if p in ids)))

    def table(self) -> CoalitionTable:
        """nu(S) for every coalition mask S, as (numerators, denominator);
        callers must not mutate it."""
        if 1 << self.m > POINT_GUARD:
            raise SizeLimitError(
                f"coalition table guarded at {POINT_GUARD} coalitions, got {1 << self.m}")
        if self.kernel is not None:
            return self.kernel()
        if self.guard is not None:
            self.guard(1 << self.m, "coalition table")
        return _over_lcd(map(self.at, range(1 << self.m)))

    @property
    def m(self) -> int:
        return len(self.players)


class ScoreVector(_Frozen):
    """Per-feature attribution scores, tagged with game and method: index i
    of ``scores`` holds the score of feature i+1, and ``method`` is "exact"
    or "cgt". Not a tuple, so it is unequal to its fields as one."""

    __slots__ = _fields = ("scores", "game", "method")

    def __init__(self, scores: tuple[Fraction, ...], game: str, method: str):
        _set(self, "scores", scores)
        _set(self, "game", game)
        _set(self, "method", method)

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


def cf_waxp(problem: ExplanationProblem, features: Iterable[int]) -> int:
    """1 if fixing the coalition forces an indistinguishable output, else 0."""
    return 1 if is_waxp(problem, features) else 0


def expected_game(problem: ExplanationProblem) -> Game:
    """The expected-value game: the uniform product distribution is on the
    model's space, so a problem whose universe is a sample has none."""
    if problem.universe is not None:
        raise ValidationError("the expected-value game is defined over the model's "
                              "space, not over a sample")
    if problem.model.value_kind != NUMERIC:
        raise NumericOutputError("the expected-value game needs numeric model outputs")
    return Game(
        players=problem.feature_ids,
        charfn=partial(problem.model.slice_expectation, problem.instance.point),
        tag=EXPECTED_VALUE,
        marginal_bound=partial(_output_width, problem.model),
        kernel=partial(problem.model.expected_table, problem.instance.point),
        guard=partial(guard_slices, problem.model),
    )


def _output_width(model) -> Fraction:
    lo, hi = output_range(model)
    return hi - lo


def waxp_game(problem: ExplanationProblem) -> Game:
    return Game(
        players=problem.feature_ids,
        charfn=partial(_sufficient, problem),
        tag=WAXP_BASED,
        marginal_bound=Fraction(1),
        kernel=lambda: (sufficiency_table(problem), 1),
        guard=partial(guard_sufficiency_sampling, problem),
    )


# ---------------------------------------------------------------------------
# Exact Shapley values
# ---------------------------------------------------------------------------

def shapley_exact(game: Game) -> ScoreVector:
    """Exact Shapley values by the weighted subset-sum formula.

    score(k) = sum over S not containing k of
               |S|! (m - |S| - 1)! / m! * (nu(S + k) - nu(S)).

    The game's coalition table (see :meth:`Game.table`, refused past
    POINT_GUARD coalitions) gives nu as integer numerators N over one
    denominator d. With w(s) = s! (m - s - 1)! and w(-1) = w(m) = 0,
    score(k) * m! * d = H_k - q: H_k sums R[T] = N[T] * (w(|T| - 1) + w(|T|))
    over the coalitions T holding k, and q = sum_T N[T] * w(|T|) is every
    player's. Folding R's top half onto its bottom half, bit m - 1 down to
    bit 0, drops the coalitions holding k as one half, whose sum is H_k;
    efficiency, sum_k (H_k - q) = m! * (N[full] - N[empty]), gives q.
    """
    m = game.m
    numerators, denominator = game.table()
    w = [0, *(factorial(s) * factorial(m - s - 1) for s in range(m)), 0]  # w[s + 1] = w(s)
    weights = list(map(add, w, w[1:]))  # by |T|

    def part(lo, hi):  # R over the coalitions lo..hi-1, built as read
        return map(mul, islice(numerators, lo, hi),
                   map(weights.__getitem__, map(int.bit_count, range(lo, hi))))

    held = []  # H_k, k = m - 1 down to 0
    for k in reversed(range(m)):
        top = list(part(1 << k, 2 << k))
        held.append(sum(top))
        folded = list(map(add, part(0, 1 << k), top))  # R, or the last fold, freed after
        part = partial(islice, folded)
    held.reverse()
    q = (sum(held) - factorial(m) * (numerators[-1] - numerators[0])) // max(m, 1)
    scale = factorial(m) * denominator
    return ScoreVector(tuple(Fraction(h - q, scale) for h in held), game.tag, "exact")


def shapley_via_permutations(game: Game) -> ScoreVector:
    """Average marginal contribution over all m! player orders.

    Independent route to the same quantity as :func:`shapley_exact`; the
    two must agree exactly.
    """
    m = game.m
    if m > PERMUTATION_GUARD:
        raise SizeLimitError(
            f"permutation enumeration guarded at m <= {PERMUTATION_GUARD}, got {m}")
    values = [Fraction(game.at(mask)) for mask in range(1 << m)]
    acc = [Fraction(0)] * m  # by position in game.players
    for order in permutations(range(m)):
        mask = 0
        for k in order:
            acc[k] += values[mask | 1 << k] - values[mask]
            mask |= 1 << k
    n_orders = factorial(m)
    return ScoreVector(tuple(total / n_orders for total in acc), game.tag, "exact")


# ---------------------------------------------------------------------------
# Score diagnostics
# ---------------------------------------------------------------------------

class FeatureCompliance(namedtuple("FeatureCompliance", "feature relevant score")):
    __slots__ = ()

    @property
    def misleading(self) -> bool:
        # A score misleads when it is zero on a relevant feature or
        # nonzero on an irrelevant one.
        return self.relevant == (self.score == 0)


class ComplianceReport(namedtuple("ComplianceReport", "entries")):
    __slots__ = ()

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(e.feature for e in self.entries if e.misleading)

    @property
    def compliant(self) -> bool:
        return not self.violations


def check_compliance(problem: ExplanationProblem, scores: ScoreVector) -> ComplianceReport:
    """Compare zero/nonzero scores against feature (ir)relevancy.

    A fully compliant vector is zero exactly on the features that occur in
    no abductive explanation."""
    m = problem.model.space.m
    if scores.m != m:
        raise ValidationError(f"score vector has {scores.m} scores for {m} features")
    relevant = set(relevant_features(problem))
    entries = tuple(
        FeatureCompliance(i, i in relevant, scores.score(i))
        for i in problem.feature_ids
    )
    return ComplianceReport(entries)


def check_value_independence(problem: ExplanationProblem, relabel: Mapping) -> bool:
    """Do sufficiency-game scores survive an injective relabeling of the
    model's output values?

    The relabeled problem is :func:`relabel_problem`'s. True means the
    score vector is unchanged feature-by-feature (exact equality).
    """
    if problem.similarity.delta is not None:
        raise PreconditionError("value independence is defined for class-equality similarity")
    relabeled = relabel_problem(problem, relabel)
    before = shapley_exact(waxp_game(problem))
    after = shapley_exact(waxp_game(relabeled))
    return before.scores == after.scores


def relabel_problem(problem: ExplanationProblem, relabel: Mapping) -> ExplanationProblem:
    """Apply an injective output-value map to a discrete model, its
    instance and a sample universe, preserving the feature space and the
    instance point."""
    if not problem.model.space.all_discrete():
        raise PreconditionError("output relabeling needs a discrete-output model")
    model = problem.model.relabel(relabel)
    instance = Instance(problem.instance.point, relabel[problem.instance.prediction])
    universe = None if problem.universe is None else problem.universe.relabel(relabel)
    return ExplanationProblem(model, instance, problem.similarity, universe)
