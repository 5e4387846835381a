"""Permutation-sampling Shapley estimator with additive-error guarantees.

For a game on m players whose marginal contributions are bounded by r,
averaging marginals over

    T = ceil(r^2 * ln(2m / alpha) / (2 * epsilon^2))

uniformly random player orders keeps every per-feature estimate within
epsilon of the exact Shapley value with probability at least 1 - alpha
(Hoeffding bound plus a union bound over the features).

Permutations come from a counter-based generator: permutation k depends
only on (seed, k), so any single draw can be reproduced on its own
(``permutation_at``). One generator, ``_orders``, defines that stream: it
mixes the seed once and yields permutations start..stop-1 in turn. The
estimator draws k = 0..T-1 from it and tallies how often each (prefix
coalition, position) pair occurs, so it holds at most T*m counts, and then
weights the counts by the game's memoized marginals. All accumulation is
exact (marginals are rationals and occurrence counts are integers), so the
returned estimates are deterministic in the strongest sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import PreconditionError, SizeLimitError, ValidationError
from .explanations import BASIS_GUARD
from .games import Game, ScoreVector

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Permutation draws times players. Drawing and tallying one player step
# costs 0.6-0.9 us (Python 3.11, 2-core x86-64 host, m = 2..8), so the
# guard stops sampling runs of more than a minute or two. It bounds draws,
# not weighting: at m = 20 and 40 nearly every tally key needs its own game
# evaluation, about 7 and 13 us per step on an additive custom game, with
# a memo of 6.3 and 9.2 MiB (T = 4,000 and 2,000).
DRAW_GUARD = 10 ** 8


@dataclass(frozen=True)
class CgtConfig:
    """Sampling parameters: additive error bound, failure probability,
    RNG seed, and an optional explicit sample-count override."""

    epsilon: Fraction
    alpha: Fraction
    seed: int = 0
    sample_count: Optional[int] = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValidationError("epsilon must be positive")
        if not 0 < self.alpha < 1:
            raise ValidationError("alpha must lie in (0, 1)")
        if self.sample_count is not None and self.sample_count < 1:
            raise ValidationError("sample count override must be >= 1")


@dataclass(frozen=True)
class CgtDiagnostics:
    permutations: int
    marginal_bound: Optional[Fraction]
    epsilon: Fraction
    alpha: Fraction
    seed: int


def sample_count(epsilon, alpha, m: int, bound) -> int:
    """Number of permutations needed for the (epsilon, alpha) guarantee
    given a marginal bound; at least one, so a zero bound still draws."""
    try:
        eps = float(epsilon)
        count = float(bound) ** 2 * math.log(2 * m / float(alpha)) / (2 * eps * eps)
    except (ZeroDivisionError, OverflowError):
        count = 0.0
    if 0 < count < math.inf:
        return math.ceil(count)
    # Parameters too small or too large for a float: the logarithm of
    # integers, and the rest in exact rationals.
    alpha = Fraction(alpha)
    log_ratio = math.log(2 * m * alpha.denominator) - math.log(alpha.numerator)
    return max(1, math.ceil(
        Fraction(bound) ** 2 / (2 * Fraction(epsilon) ** 2) * Fraction(log_ratio)))


# ---------------------------------------------------------------------------
# Counter-based permutation stream
# ---------------------------------------------------------------------------

def _splitmix_next(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _orders(seed: int, m: int, start: int, stop: int) -> Iterator[list[int]]:
    """Permutations start..stop-1 of {1..m} for this seed, each a fresh list.

    Permutation k is a Fisher-Yates shuffle of 1..m driven by SplitMix64
    from the state mixed(seed) + (k + 1) * golden. A draw below n takes the
    next output z with z >= 2^64 mod n, which keeps it exactly uniform, and
    returns z mod n. The SplitMix step is written out inline because calls
    would cost more than the arithmetic.
    """
    golden, mask64 = _GOLDEN, _MASK64
    _, mixed = _splitmix_next(seed & mask64)
    steps = [(i, i + 1, (1 << 64) % (i + 1)) for i in range(m - 1, 0, -1)]
    identity = list(range(1, m + 1))
    state = (mixed + start * golden) & mask64
    for _ in range(start, stop):
        state = (state + golden) & mask64
        s = state
        order = identity[:]
        for i, n, threshold in steps:
            while True:  # rejection sampling
                s = (s + golden) & mask64
                z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask64
                z ^= z >> 31
                if z >= threshold:
                    break
            j = z % n
            order[i], order[j] = order[j], order[i]
        yield order


def permutation_at(seed: int, m: int, index: int) -> tuple[int, ...]:
    """The index-th permutation of {1..m} for this seed; a pure function
    of (seed, m, index)."""
    if m < 1:
        raise ValidationError("permutations need m >= 1")
    return tuple(next(_orders(seed, m, index, index + 1)))


# ---------------------------------------------------------------------------
# Estimator
# ---------------------------------------------------------------------------

def cgt_estimate(game: Game, config: CgtConfig) -> tuple[ScoreVector, CgtDiagnostics]:
    """Estimate all Shapley values of ``game`` from sampled permutations.

    Each permutation is walked once, evaluating the m+1 prefix coalitions
    (memoized by the game), and contributes one marginal per player. The
    estimate for a player is the exact rational mean of its marginals.
    """
    m = game.m
    bound = game.marginal_bound
    if config.sample_count is not None:
        total = config.sample_count
    else:
        if bound is None:
            raise PreconditionError(
                "game has no marginal bound; pass one or override the sample count")
        total = sample_count(config.epsilon, config.alpha, m, bound)
    if total * m > DRAW_GUARD:
        raise SizeLimitError(
            f"sampling guarded at {DRAW_GUARD} player draws: {m} players allow at most "
            f"{DRAW_GUARD // m} permutations, fewer than these parameters need")
    # A permutation's prefixes share only the empty and the full coalition.
    evaluations = min(total * m + 1, 1 << m)
    if game.evaluation_cost is not None and evaluations * game.evaluation_cost() > BASIS_GUARD:
        raise SizeLimitError(
            f"sampling guarded at {BASIS_GUARD} set comparisons: {total} permutations "
            f"may evaluate {evaluations} coalitions, each checked against the basis")

    # Marginals repeat heavily on small games, so tally (prefix mask,
    # position) occurrence counts under the int key mask * m + (p - 1) and
    # weight them by the memoized marginals at the end. Position p of a
    # permutation is player players[p - 1] and mask bit p - 1, the game's
    # own coalition key. The dict holds at most T * m keys, however many
    # players there are.
    counts: dict = {}
    get = counts.get
    for order in _orders(config.seed, m, 0, total):
        mask = 0
        for p in order:
            key = mask * m + p - 1
            counts[key] = get(key, 0) + 1
            mask |= 1 << (p - 1)
    at = game.at
    sums = [Fraction(0)] * m
    for key, n in counts.items():
        mask, pos = divmod(key, m)
        sums[pos] += n * (at(mask | 1 << pos) - at(mask))
    scores = tuple(s / total for s in sums)
    diag = CgtDiagnostics(total, bound, Fraction(config.epsilon),
                          Fraction(config.alpha), config.seed)
    return ScoreVector(scores, game.tag, "cgt"), diag
