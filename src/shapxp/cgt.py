"""Permutation-sampling Shapley estimator with additive-error guarantees.

For a game on m players whose marginal contributions are bounded by r,
averaging marginals over

    T = ceil(r^2 * ln(2m / alpha) / (2 * epsilon^2))

uniformly random player orders keeps every per-feature estimate within
epsilon of the exact Shapley value with probability at least 1 - alpha
(Hoeffding bound plus a union bound over the features).

Permutations come from a counter-based generator: permutation k depends
only on (seed, k), so any single draw can be reproduced on its own
(``permutation_at``). Permutation k is a Fisher-Yates shuffle of 1..m
whose draws read SplitMix64 outputs from counter k + 2 on, and one
function, ``_draw``, defines that stream. The estimator counts the draw
tuples of k = 0..T-1 with ``_draw_counts``, which computes each stream
output once, since consecutive permutations share all but one of their
counters, and falls back on ``_draw`` where an output is rejected. It
decodes each distinct tuple once and tallies how often each (prefix
coalition, position) pair occurs, so it holds at most T*m counts, and then
weights the counts by the game's memoized marginals. All accumulation is
exact (marginals are rationals and occurrence counts are integers), so the
returned estimates are deterministic in the strongest sense.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import mod
from typing import Iterator, Optional

from .errors import PreconditionError, SizeLimitError, ValidationError
from .games import Game, ScoreVector

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Permutation draws times players. Counting and tallying one player step
# costs 0.15-0.6 us (Python 3.11, 2-core x86-64 host, m = 2..10; 0.25 at
# m = 4, 0.55 at m = 8, where nearly every draw tuple is distinct), so the
# guard stops sampling runs of more than about a minute. It bounds draws,
# not weighting: at m = 20 and 40 nearly every tally key needs its own game
# evaluation, about 7 and 13 us per step on an additive custom game, with
# a memo of 6.3 and 9.2 MiB (T = 4,000 and 2,000).
DRAW_GUARD = 10 ** 8
# Permutations whose stream outputs, and distinct draw tuples that are
# counted before they are tallied, are held at once; no result depends on it.
CHUNK = 1024


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


def _outputs(mixed: int, start: int, stop: int) -> list[int]:
    """The SplitMix64 outputs at counters start..stop-1; counter c reads
    the state mixed + c * golden. The step is written out inline because
    calls, or ``map`` over operators, would cost more than the arithmetic."""
    golden, mask64 = _GOLDEN, _MASK64
    s = (mixed + (start - 1) * golden) & mask64
    zs = []
    append = zs.append
    for _ in range(start, stop):
        s = (s + golden) & mask64
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask64
        append(z ^ (z >> 31))
    return zs


def _draw(mixed: int, m: int, k: int) -> tuple[int, ...]:
    """The m - 1 draws of permutation k, read one output at a time.

    Draw t is below n = m - t. It reads the output after the previous
    draw's, starting at counter k + 2, and takes it as z mod n when
    z >= 2^64 mod n, which keeps it exactly uniform; a lower z is rejected
    and the draw reads on."""
    state = (mixed + (k + 1) * _GOLDEN) & _MASK64
    draws = []
    for n in range(m, 1, -1):
        threshold = (1 << 64) % n
        state, z = _splitmix_next(state)
        while z < threshold:
            state, z = _splitmix_next(state)
        draws.append(z % n)
    return tuple(draws)


def _order(m: int, draws: tuple[int, ...]) -> list[int]:
    """The permutation of 1..m that a tuple of draws makes: a Fisher-Yates
    shuffle whose step i (from m - 1 down to 1) swaps positions i and the
    draw below i + 1."""
    order = list(range(1, m + 1))
    for i, j in zip(range(m - 1, 0, -1), draws):
        order[i], order[j] = order[j], order[i]
    return order


def _draw_counts(seed: int, m: int, start: int, stop: int) -> Iterator[Counter]:
    """How often each tuple of draws occurs among permutations start..stop-1
    of this seed, as Counters that together count each permutation once.

    Permutation k's draw t reads counter k + 2 + t unless an earlier draw
    rejected an output, so consecutive permutations share all but one of
    their counters. A chunk k0..k1-1 of at most CHUNK permutations
    therefore computes the outputs at counters k0 + 2 .. k1 + m - 1 once,
    and column t of its draws is those outputs from the t-th on, each mod
    m - t. Every rejection threshold 2^64 mod n is below m, so a chunk
    whose outputs all reach the largest one rejects nothing; otherwise each
    permutation whose window holds a lower output is counted again from
    :func:`_draw`. When all m! tuples fit in CHUNK entries (m <= 6), the
    chunks add to one Counter for the whole run; otherwise each chunk's
    Counter is handed on alone.
    """
    _, mixed = _splitmix_next(seed & _MASK64)
    if m == 1:  # no draws
        if stop > start:
            yield Counter({(): stop - start})
        return
    sizes = range(m, 1, -1)
    top = max((1 << 64) % n for n in sizes)
    whole_run = math.factorial(m) <= CHUNK
    counts: Counter = Counter()
    for k0 in range(start, stop, CHUNK):
        size = min(CHUNK, stop - k0)
        zs = _outputs(mixed, k0 + 2, k0 + size + m)
        counts.update(zip(*(map(mod, islice(zs, t, None), repeat(n))
                            for t, n in enumerate(sizes))))
        if min(zs) < top:
            low = [i for i, z in enumerate(zs) if z < top]
            for r in {i - t for i in low for t in range(m - 1)}:
                if 0 <= r < size:
                    read = tuple(zs[r + t] % n for t, n in enumerate(sizes))
                    counts[read] -= 1
                    if not counts[read]:
                        del counts[read]
                    counts[_draw(mixed, m, k0 + r)] += 1
        if not whole_run:
            yield counts
            counts = Counter()
    if counts:
        yield counts


def permutation_at(seed: int, m: int, index: int) -> tuple[int, ...]:
    """The index-th permutation of {1..m} for this seed; a pure function
    of (seed, m, index)."""
    if m < 1:
        raise ValidationError("permutations need m >= 1")
    _, mixed = _splitmix_next(seed & _MASK64)
    return tuple(_order(m, _draw(mixed, m, index)))


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
    if callable(bound):
        bound = bound()
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
    if game.sampling_guard is not None:
        # A permutation's prefixes share only the empty and the full coalition.
        game.sampling_guard(min(total * m + 1, 1 << m))

    # Marginals repeat heavily on small games, so tally (prefix mask,
    # position) occurrence counts under the int key mask * m + (p - 1) and
    # weight them by the memoized marginals at the end. Position p of a
    # permutation is player players[p - 1] and mask bit p - 1, the game's
    # own coalition key. The dict holds at most T * m keys, however many
    # players there are.
    counts: dict = {}
    get = counts.get
    for drawn in _draw_counts(config.seed, m, 0, total):
        for draws, n in drawn.items():
            mask = 0
            for p in _order(m, draws):
                key = mask * m + p - 1
                counts[key] = get(key, 0) + n
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
