"""Permutation-sampling Shapley estimator with additive-error guarantees.

For a game on m players whose marginal contributions are bounded by r,
averaging marginals over

    T = ceil(r^2 * ln(2m / alpha) / (2 * epsilon^2))

uniformly random player orders keeps every per-feature estimate within
epsilon of the exact Shapley value with probability at least 1 - alpha
(Hoeffding bound plus a union bound over the features).

Permutations come from a counter-based generator: permutation k depends
only on (seed, k), so any single draw can be reproduced on its own
(``permutation_at``). Every SplitMix64 output, the seed's mixing
included, comes from one function, ``_packed``, which computes a range
of counters together, each state in its own 128-bit lane of one int, so
that a SplitMix64 step is a few big-int operations over the range rather
than a Python loop step per output; ``_outputs`` unpacks the lanes into a
list. Permutation k is a Fisher-Yates shuffle of 1..m whose draws read
the outputs from counter k + 2 on (``_draw``). ``_draw_columns`` reads
the draws of k = 0..T-1 a chunk at a time, computing each output once
and building the lane constants once a run (``_chunks``); up to m = 32
it reads each column of residues with ``bytes.translate`` from those of
the outputs' byte planes that carry one, and it falls back on ``_draw``
for a chunk where an output may be rejected. ``_step_counts`` tallies
how often each (coalition, player) step of shuffle steps m - 1 .. 1
occurs, at most T*(m - 1) counts, and the estimator credits the first
position from step 1, whose coalition before is that player alone. At
m = 2 a popcount of the packed lanes counts the draws; up to m = 6 each
permutation's mixed-radix code is computed in byte lanes and counted (up
to m = 4 by one ``bytes.count`` a code), and each distinct one is walked
once; from 7 to 16, where nearly every tuple is distinct,
``_lane_tally`` walks all the shuffles of a chunk at once, a lane of a
few ints per permutation (two steps a key in a long run at m <= 8); past
16 each tuple is walked as drawn. The values weighting the counts are
integer numerators over one denominator: the game's coalition table
(``Game.table``) when the draws touched all 2^m coalitions, else the
game's memoized values of the touched coalitions alone. All accumulation
is exact integer arithmetic, so the returned estimates do not depend on
where the values came from and are deterministic in the strongest sense.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter, namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, islice, product, repeat
from operator import mod

from .errors import PreconditionError, SizeLimitError, ValidationError
from .games import Game, ScoreVector
from .models import POINT_GUARD, _Frozen, _over_lcd, _set

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Permutation draws times players. Counting a permutation's steps costs
# (_step_counts, Python 3.11, 2-core x86-64 host, thread CPU, lowest of
# 12 runs) 0.06 us at m = 2 (popcount, T = 2 * 10^5), 0.13 at m = 3 and
# 0.15 at 4 (codes), in lanes 0.67 at m = 8 (pair keys), 1.7 at 12 and
# 3.0 at 16, 7.5 at m = 20 and past 32 about 0.43 us a player, so the
# guard stops sampling runs of more than about a minute (a run at the
# guard counts for 37 s at m = 20, 42-44 s at m = 33..200). It bounds
# draws, not weighting: at m = 20 and 40 nearly every tally key needs its
# own game evaluation, about 7 and 11 us per step on an additive custom
# game, with a memo of 6.3 and 9.2 MiB (T = 4,000 and 2,000).
DRAW_GUARD = 10 ** 8
# Permutations whose stream outputs and draws are held at once (the m <= 6
# code Counter spans the whole run, at most 720 entries, and the m <= 8
# pair-key Counter at most 1,792); no result depends on it.
CHUNK = 1024


class CgtConfig(_Frozen):
    """Sampling parameters: additive error bound, failure probability,
    RNG seed, and an optional explicit sample-count override."""

    __slots__ = _fields = ("epsilon", "alpha", "seed", "sample_count")

    def __init__(self, epsilon: Fraction, alpha: Fraction, seed: int = 0,
                 sample_count: int | None = None):
        if epsilon <= 0:
            raise ValidationError("epsilon must be positive")
        if not 0 < alpha < 1:
            raise ValidationError("alpha must lie in (0, 1)")
        if sample_count is not None and sample_count < 1:
            raise ValidationError("sample count override must be >= 1")
        _set(self, "epsilon", epsilon)
        _set(self, "alpha", alpha)
        _set(self, "seed", seed)
        _set(self, "sample_count", sample_count)


CgtDiagnostics = namedtuple("CgtDiagnostics", "permutations marginal_bound")


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

# The positions, in an array of 64-bit words, of the low halves of 128-bit
# lanes 0, 1, ... of an int written out in the machine's byte order.
_LOW_HALVES = slice(0, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


def _lanes(n: int) -> tuple[int, int, int]:
    """The constants of an n-output :func:`_outputs` call: lane i's index
    times golden, a 1 in each lane, and the low 64 bits of each lane."""
    index = array("Q", bytes(16 * n))
    index[_LOW_HALVES] = array("Q", range(n))
    ones = int.from_bytes((b"\1" + bytes(15)) * n, "little")
    return int.from_bytes(index, sys.byteorder) * _GOLDEN, ones, (ones << 64) - ones


def _chunks(start: int, stop: int, extra: int) -> Iterator[tuple[int, int, tuple]]:
    """Each chunk k0, size of at most CHUNK permutations of start..stop-1
    with the :func:`_lanes` of its size + extra outputs, built once a run:
    a shorter last chunk's are the full chunk's cut to its lanes."""
    lanes = _lanes(min(CHUNK, stop - start) + extra)
    for k0 in range(start, stop, CHUNK):
        size = min(CHUNK, stop - k0)
        if size < CHUNK < stop - start:
            mask = (1 << 128 * (size + extra)) - 1
            lanes = tuple(constant & mask for constant in lanes)
        yield k0, size, lanes


def _packed(mixed: int, start: int, stop: int, lanes=None) -> tuple[int, int]:
    """The SplitMix64 outputs at counters start..stop-1, output i in the
    low 64 bits of bits 128i..128i+127 of one int, and the lanes' ones
    (bit 128i for each i); counter c reads the state mixed + c * golden.

    Each mix step is a few big-int operations over the whole range. A
    state fills the low 64 bits of its lane; masking it there before each
    multiply drops the bits a right shift carried in from the next lane,
    and its product with a 64-bit constant fits in the lane's 128. The
    last shift carries bits into the high half of each lane, which callers
    ignore. ``lanes`` is ``_lanes(stop - start)``, built here when not
    given."""
    steps, ones, low = _lanes(stop - start) if lanes is None else lanes
    z = (((mixed + start * _GOLDEN) & _MASK64) * ones + steps) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    return z ^ z >> 31, ones


def _outputs(mixed: int, start: int, stop: int, lanes=None) -> list[int]:
    """The SplitMix64 outputs at counters start..stop-1, as a list
    (see :func:`_packed`)."""
    z, _ = _packed(mixed, start, stop, lanes)
    return array("Q", z.to_bytes(16 * (stop - start), sys.byteorder))[_LOW_HALVES].tolist()


def _draw(mixed: int, m: int, k: int) -> tuple[int, ...]:
    """The m - 1 draws of permutation k.

    Draw t is below n = m - t. It reads the output after the previous
    draw's, starting at counter k + 2, and takes it as z mod n when
    z >= 2^64 mod n, which keeps it exactly uniform; a lower z is rejected
    and the draw reads on. The m - 1 outputs the draws read when none is
    rejected are computed together, and each rejection computes one more."""
    zs = _outputs(mixed, k + 2, k + m + 1)
    i = 0
    draws = []
    for n in range(m, 1, -1):
        threshold = (1 << 64) % n
        while zs[i] < threshold:
            zs += _outputs(mixed, k + 2 + len(zs), k + 3 + len(zs))
            i += 1
        draws.append(zs[i] % n)
        i += 1
    return tuple(draws)


def _order(m: int, draws: tuple[int, ...]) -> list[int]:
    """The permutation of 1..m that a tuple of draws makes: a Fisher-Yates
    shuffle whose step i (from m - 1 down to 1) swaps positions i and the
    draw below i + 1."""
    order = list(range(1, m + 1))
    for i, j in zip(range(m - 1, 0, -1), draws):
        order[i], order[j] = order[j], order[i]
    return order


def _draw_columns(mixed: int, m: int, start: int, stop: int) -> Iterator[list]:
    """The draws of permutations start..stop-1 (m >= 3) of the seed that
    mixes to ``mixed``, a chunk at a time, as m - 1 columns: column t holds
    draw t of each permutation of the chunk, as ``bytes`` up to m = 32.

    Permutation k's draw t reads counter k + 2 + t unless an earlier draw
    rejected an output, so a chunk k0..k1-1 of at most CHUNK permutations
    computes the outputs at counters k0 + 2 .. k1 + m - 1 once, and column
    t maps those from the t-th on mod n = m - t. Up to m = 32 an output's
    byte j adds byte_j * (256^j mod n) mod n, which ``bytes.translate``
    reads off its byte plane; the at most 8 terms sum to at most
    8 * (n - 1) < 256, so the planes add as ints with no carry, and one
    more table takes the sum mod n. A plane whose 256^j mod n is 0, every
    j >= 1 when n is a power of two, adds nothing and is not read. Every
    rejection threshold 2^64 mod n is below m, so a chunk whose outputs all
    reach the largest one rejects nothing; up to m = 32 that is checked
    only for a chunk with an output below 256 (bytes 1..7 all zero).
    Otherwise, with probability about m * CHUNK / 2^64, the chunk is read
    one permutation at a time by :func:`_draw`.
    """
    sizes = range(m, 1, -1)
    top = max((1 << 64) % n for n in sizes)
    if m <= 32:  # mods[n][b] = b mod n; shares[n] pairs j with b * (256^j mod n) mod n
        mods = {n: (bytes(range(n)) * (256 // n + 1))[:256] for n in sizes}
        shares = {n: [(j, (bytes(b * pow(256, j, n) % n for b in range(n)) * (256 // n + 1))[:256])
                      for j in range(8) if pow(256, j, n)] for n in sizes}
    for k0, size, lanes in _chunks(start, stop, m - 2):
        if m > 32:  # a threshold may pass 255: the unpacked outputs
            zs = _outputs(mixed, k0 + 2, k0 + size + m, lanes)
            if min(zs) >= top:
                yield [map(mod, islice(zs, t, t + size), repeat(n)) for t, n in enumerate(sizes)]
                continue
        else:
            count = size + m - 2
            data = _packed(mixed, k0 + 2, k0 + size + m, lanes)[0].to_bytes(16 * count, "little")
            planes = [data[j::16] for j in range(8)]
            high = 0
            for plane in planes[1:]:
                high |= int.from_bytes(plane, "little")
            if 0 not in high.to_bytes(count, "little") or \
                    min(_outputs(mixed, k0 + 2, k0 + size + m, lanes)) >= top:
                yield [sum(int.from_bytes(planes[j].translate(share), "little")
                           for j, share in shares[n]).to_bytes(count, "little")
                       .translate(mods[n])[t:t + size] for t, n in enumerate(sizes)]
                continue
        drawn = zip(*(_draw(mixed, m, k) for k in range(k0, k0 + size)))
        yield list(map(bytes, drawn)) if m <= 32 else list(drawn)


def _step_counts(seed: int, m: int, start: int, stop: int) -> Counter:
    """How often each step key after << m | bit (see :func:`cgt_estimate`)
    of Fisher-Yates steps m - 1 .. 1 occurs among permutations
    start..stop-1 of this seed, m >= 2: m - 1 keys a permutation.

    At m = 2 the one draw is z mod 2, the low bit of the output, and its
    rejection threshold 2^64 mod 2 is 0, so no output is ever rejected:
    a popcount of the lanes' low bits, before any unpacking, counts the
    draws of 1 (key 0b1010) and so those of 0 (key 0b0101). Up to m = 6,
    where all m! draw tuples fit in CHUNK entries, each permutation is
    counted by its mixed-radix code, the sum of draw t * (m - t - 1)!,
    which a chunk computes in lanes of one int, a byte each up to m = 5
    (5! = 120) and 2 at m = 6, from its byte columns; the run's codes are
    counted and each distinct one, decoded to its draws, is walked once.
    Up to m = 4 (24 codes) one ``bytes.count`` a code counts a chunk, for
    less than a Counter update a permutation; at m = 5 the scans cost more.
    From 7 to 16 :func:`_lane_tally` walks a chunk's shuffles at once,
    with O(m^2) selectors a chunk; past 16, where the lanes measured no
    faster, each tuple is walked as drawn.
    """
    mixed = _outputs(seed & _MASK64, 1, 2)[0]
    if m == 2:
        odd = 0
        for k0, size, lanes in _chunks(start, stop, 0):
            z, ones = _packed(mixed, k0 + 2, k0 + size + 2, lanes)
            odd += (z & ones).bit_count()
        return +Counter({0b0101: stop - start - odd, 0b1010: odd})
    if 6 < m <= 16:
        return _lane_tally(mixed, m, start, stop)
    sizes = range(m, 1, -1)
    if m <= 6:
        width, code = (1, "B") if m <= 5 else (2, "H")
        weights = [math.factorial(n - 1) for n in sizes]
        codes: Counter = Counter()
        # The draw tuples in lexicographic order are those of codes 0, 1, ...
        decoded = list(product(*map(range, sizes)))
        span = range(len(decoded))
        for columns in _draw_columns(mixed, m, start, stop):
            wide = bytearray(width * len(columns[0]))
            total = 0
            for column, weight in zip(columns, weights):
                wide[::width] = column
                total += int.from_bytes(wide, "little") * weight
            data = total.to_bytes(len(wide), sys.byteorder)
            if m <= 4:  # at most 24 codes: a scan for each beats a count per permutation
                codes.update(dict(zip(span, map(data.count, span))))
            else:
                codes.update(memoryview(data).cast(code))
        drawn = [(decoded[c], n) for c, n in codes.items() if n]
    else:
        drawn = zip(chain.from_iterable(
            zip(*columns) for columns in _draw_columns(mixed, m, start, stop)), repeat(1))
    counts: Counter = Counter()
    get = counts.get
    bits = [1 << k for k in range(m)]
    steps = range(m - 1, 0, -1)
    for draws, n in drawn:
        order = bits.copy()
        after = 0
        for i, j in zip(steps, draws):
            bit = order[j]
            order[j] = order[i]
            after |= bit
            key = after << m | bit
            counts[key] = get(key, 0) + n
    return counts


def _lane_tally(mixed: int, m: int, start: int, stop: int) -> Counter:
    """:func:`_step_counts` at 7 <= m <= 16, for the seed that mixes to
    ``mixed``.

    A chunk of :func:`_draw_columns` walks its Fisher-Yates shuffles at
    once: permutation p is lane p, of 2 bytes (m <= 8) or 4, and order[k]
    holds in each lane the bit of the player at position k. At step i,
    ``bytes.translate`` turns the draw column's bytes, copied into every
    byte of their lanes, into the selector of the lanes whose draw is k
    (all ones there) for each k < i; those lanes swap order[k] with
    order[i], and the rest, whose draw is i, keep it. Each key fills 2m
    bits of a lane, and one Counter update counts a chunk's keys from their
    bytes, written in the machine's byte order. In 2-byte lanes a run of at
    least 24 * 2^m permutations (decoding its at most 1,792 distinct keys
    pays from about 2,200 at m = 7 and 5,000 at m = 8) keys two steps
    together: the players behind step i, then the numbers 1..m of the
    players steps i and i - 1 place (0 for a last step alone).
    """
    width, code = (2, "H") if m <= 8 else (4, "I")
    pairs = m <= 8 and stop - start >= 24 << m
    tables = [bytes(k) + b"\xff" + bytes(255 - k) for k in range(m - 1)]
    log = bytes(map(int.bit_length, range(256)))  # a one-hot byte's player number
    counts: Counter = Counter()
    for columns in _draw_columns(mixed, m, start, stop):
        wide = bytearray(width * len(columns[0]))
        ones = int.from_bytes((b"\1" + bytes(width - 1)) * len(columns[0]), "little")
        order = [ones << k for k in range(m)]
        after, behind, bits = 0, [], []
        for i, column in zip(range(m - 1, 0, -1), columns):
            for b in range(width):
                wide[b::width] = column
            bit = stay = order[i]
            for k in range(i):
                swap = (order[k] ^ stay) & int.from_bytes(wide.translate(tables[k]), "little")
                order[k] ^= swap
                bit ^= swap
            behind.append(after)
            after |= bit
            bits.append(bit)
        if pairs:
            numbers = [int.from_bytes(bit.to_bytes(len(wide), "little").translate(log), "little")
                       for bit in bits] + [0]
            keys = [before | first << m | second << m + 4 for before, first, second
                    in zip(behind[::2], numbers[::2], numbers[1::2])]
        else:
            keys = [(before | bit) << m | bit for before, bit in zip(behind, bits)]
        counts.update(memoryview(b"".join(
            key.to_bytes(len(wide), sys.byteorder) for key in keys)).cast(code))
    if pairs:  # each distinct pair key adds its count to its two step keys
        steps: dict = {}
        get, full = steps.get, (1 << m) - 1
        for key, n in counts.items():
            first = 1 << (key >> m & 15) - 1
            after = key & full | first
            steps[after << m | first] = get(after << m | first, 0) + n
            if key >> m + 4:
                second = 1 << (key >> m + 4) - 1
                step = (after | second) << m | second
                steps[step] = get(step, 0) + n
        counts = Counter(steps)
    return counts


def permutation_at(seed: int, m: int, index: int) -> tuple[int, ...]:
    """The index-th permutation of {1..m} for this seed; a pure function
    of (seed, m, index)."""
    if m < 1:
        raise ValidationError("permutations need m >= 1")
    mixed = _outputs(seed & _MASK64, 1, 2)[0]
    return tuple(_order(m, _draw(mixed, m, index)))


# ---------------------------------------------------------------------------
# Estimator
# ---------------------------------------------------------------------------

def cgt_estimate(game: Game, config: CgtConfig) -> tuple[ScoreVector, CgtDiagnostics]:
    """Estimate all Shapley values of ``game`` from sampled permutations.

    Each permutation contributes one marginal per player, between the
    coalition before it and that coalition with it. The estimate for a
    player is the exact rational mean of its marginals.
    """
    m = game.m
    bound = game.marginal_bound
    if callable(bound):
        bound = bound()
    if m == 0:  # no player to score
        total = 0
    elif config.sample_count is not None:
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
    if game.guard is not None:
        # A permutation's prefixes share only the empty and the full coalition.
        game.guard(min(total * m + 1, 1 << m), "sampling")
    if m < 2:  # no draw: no player, or one whose only marginal is nu({p}) - nu({})
        scores = (game.at(1) - game.at(0),) if m else ()
        return ScoreVector(scores, game.tag, "cgt"), CgtDiagnostics(total, bound)

    # Fisher-Yates fixes positions from the back: when a step puts player
    # bit ``bit`` at its position, ``after`` holds it and the players
    # behind it, so the coalition before it is full ^ after. Each step is
    # tallied under after << m | bit; the tally holds at most T * (m - 1)
    # keys, however many players there are. Bit k of a mask stands for
    # players[k], the game's own coalition key.
    full = (1 << m) - 1
    counts = _step_counts(config.seed, m, 0, total)
    # Every coalition a step key reads is full ^ after for some key's after,
    # the full coalition (after a first step, full ^ after ^ bit is the full
    # one) or, for the first position, the empty one. The values come as
    # integer numerators over one denominator: from the game's table when
    # the sample touched every coalition, else from the memo over the
    # touched ones; a kernel-less game's table is that memo, filled under the
    # 2^m guard charge passed above. The sums are exact, whatever the source.
    touched = {full ^ key >> m for key in counts} | {0, full}
    if len(touched) == 1 << m <= POINT_GUARD:
        values, denominator = game.table()
    else:
        numerators, denominator = _over_lcd(map(game.at, touched))
        values = dict(zip(touched, numerators))
    sums = [0] * m
    for key, n in counts.items():
        bit = key & full
        before = full ^ key >> m
        sums[bit.bit_length() - 1] += n * (values[before | bit] - values[before])
        if before & before - 1 == 0:  # step 1: before is the first player alone
            sums[before.bit_length() - 1] += n * (values[before] - values[0])
    scores = tuple(Fraction(s, total * denominator) for s in sums)
    return ScoreVector(scores, game.tag, "cgt"), CgtDiagnostics(total, bound)
