"""Permutation-sampling Shapley estimator with additive-error guarantees.

For a game on m players whose marginal contributions are bounded by r,
averaging marginals over

    T = ceil(r^2 * ln(2m / alpha) / (2 * epsilon^2))

uniformly random player orders keeps every per-feature estimate within
epsilon of the exact Shapley value with probability at least 1 - alpha
(Hoeffding bound plus a union bound over the features).

Permutations come from a counter-based generator: permutation k depends
only on (seed, k), so any partition of the counter range across workers
reproduces the sequential result bit for bit. All accumulation is exact
(marginals are rationals and occurrence counts are integers), so the
returned estimates are deterministic in the strongest sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import PreconditionError, SizeLimitError, ValidationError
from .games import Game, ScoreVector

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Permutation draws times players: each player step costs about a
# microsecond or two, so the guard stops runs of more than a few minutes.
DRAW_GUARD = 10 ** 8


@dataclass(frozen=True)
class CgtConfig:
    """Sampling parameters: additive error bound, failure probability,
    RNG seed, and an optional explicit sample-count override."""

    epsilon: Fraction
    alpha: Fraction
    seed: int = 0
    sample_count: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValidationError("epsilon must be positive")
        if not 0 < self.alpha < 1:
            raise ValidationError("alpha must lie in (0, 1)")
        if self.sample_count is not None and self.sample_count < 1:
            raise ValidationError("sample count override must be >= 1")
        if self.workers < 1:
            raise ValidationError("worker count must be >= 1")


@dataclass(frozen=True)
class CgtDiagnostics:
    permutations: int
    marginal_bound: Optional[Fraction]
    epsilon: Fraction
    alpha: Fraction
    seed: int


def sample_count(epsilon, alpha, m: int, bound) -> int:
    """Number of permutations needed for the (epsilon, alpha) guarantee
    given a marginal bound."""
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
    return math.ceil(Fraction(bound) ** 2 / (2 * Fraction(epsilon) ** 2) * Fraction(log_ratio))


# ---------------------------------------------------------------------------
# Counter-based permutation stream
# ---------------------------------------------------------------------------

def _splitmix_next(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _randbelow(state: int, n: int) -> tuple[int, int]:
    # Rejection sampling keeps bounded draws exactly uniform.
    threshold = (1 << 64) % n
    while True:
        state, value = _splitmix_next(state)
        if value >= threshold:
            return state, value % n


def permutation_at(seed: int, m: int, index: int) -> tuple[int, ...]:
    """The index-th permutation of {1..m} for this seed; a pure function
    of (seed, m, index)."""
    if m < 1:
        raise ValidationError("permutations need m >= 1")
    _, mixed = _splitmix_next(seed & _MASK64)
    state = (mixed + (index + 1) * _GOLDEN) & _MASK64
    order = list(range(1, m + 1))
    for i in range(m - 1, 0, -1):  # Fisher-Yates
        state, j = _randbelow(state, i + 1)
        order[i], order[j] = order[j], order[i]
    return tuple(order)


def permutation_stream(seed: int, m: int) -> Iterator[tuple[int, ...]]:
    """Endless stream of uniform random permutations of {1..m},
    reproducible from the seed."""
    index = 0
    while True:
        yield permutation_at(seed, m, index)
        index += 1


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

    # Marginals repeat heavily on small games, so tally (prefix, player)
    # occurrence counts and weight them by the memoized marginals at the
    # end. Counts are order-independent, hence worker-partition invariant.
    counts = _tally_marginals(game, config, total)
    sums = {i: Fraction(0) for i in game.players}
    for (mask, player), n in counts.items():
        prefix = frozenset(p for k, p in enumerate(game.players) if mask >> k & 1)
        marginal = game.value(prefix | {player}) - game.value(prefix)
        sums[player] += n * marginal
    scores = tuple(sums[i] / total for i in game.players)
    diag = CgtDiagnostics(total, bound, Fraction(config.epsilon),
                          Fraction(config.alpha), config.seed)
    return ScoreVector(scores, game.tag, "cgt"), diag


def _tally_marginals(game: Game, config: CgtConfig, total: int) -> dict:
    chunks = _chunk_ranges(total, config.workers)
    if len(chunks) == 1:
        return _tally_chunk(game, config.seed, *chunks[0])
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        partials = list(pool.map(
            lambda c: _tally_chunk(game, config.seed, *c), chunks))
    merged: dict = {}
    for part in partials:  # integer merges commute; order is irrelevant
        for key, n in part.items():
            merged[key] = merged.get(key, 0) + n
    return merged


def _chunk_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    size = max(1, -(-total // workers))
    return [(start, min(start + size, total)) for start in range(0, total, size)]


def _tally_chunk(game: Game, seed: int, start: int, stop: int) -> dict:
    index = {player: k for k, player in enumerate(game.players)}
    counts: dict = {}
    m = game.m
    for k in range(start, stop):
        order = permutation_at(seed, m, k)
        mask = 0
        for player in order:
            key = (mask, player)
            counts[key] = counts.get(key, 0) + 1
            mask |= 1 << index[player]
    return counts
