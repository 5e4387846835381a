import hashlib
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction as F
from itertools import permutations

import pytest

from shapxp import (
    CgtConfig,
    DiscreteDomain,
    ExplanationProblem,
    Feature,
    FeatureSpace,
    Game,
    PreconditionError,
    ScoreVector,
    SimilarityConfig,
    SizeLimitError,
    TabularModel,
    ValidationError,
    cgt_estimate,
    expected_game,
    make_instance,
    shapley_exact,
    waxp_game,
)
from shapxp import cgt as cgt_module
from shapxp import games as games_module
from shapxp.cgt import (
    CHUNK, _draw, _draw_columns, _lanes, _order, _outputs, _packed, _step_counts,
    permutation_at, sample_count)
from shapxp.cli import run_cli
from conftest import FIXTURES
from randmodels import random_instance, random_tabular_problem, random_tree_model

# Reference stream: a verbatim copy of permutation_at as it was written
# before the draw loop was inlined, one call per SplitMix step and per
# bounded draw. The inlined stream and the chunked draw counter must
# reproduce it for every seed.
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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


def reference_permutation_at(seed: int, m: int, index: int) -> tuple[int, ...]:
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


def draws(seed, m, n):
    return [permutation_at(seed, m, k) for k in range(n)]


def counted(seed, m, start, stop):
    """Permutations start..stop-1 (m >= 3) as the step tallies see them:
    the draws of each chunk of _draw_columns, decoded to permutations."""
    _, mixed = _splitmix_next(seed & _MASK64)
    return Counter(tuple(_order(m, drawn)) for columns in _draw_columns(mixed, m, start, stop)
                   for drawn in zip(*columns))


def reference_counts(seed, m, start, stop):
    return Counter(reference_permutation_at(seed, m, k) for k in range(start, stop))


def steps_of(perms, m):
    """The step keys of positions 1..m-1 of a Counter of permutations,
    each counted as often as the permutation: the mask of the players at p
    and after, shifted by m, or the bit of the player at p."""
    tally = Counter()
    for perm, n in perms.items():
        bits = [1 << player - 1 for player in perm]
        for p in range(1, m):
            tally[sum(bits[p:]) << m | bits[p]] += n
    return tally


def reference_steps(seed, m, start, stop):
    """The step keys of reference permutations start..stop-1."""
    return steps_of(reference_counts(seed, m, start, stop), m)


def _unshift(z, shift):
    """The 64-bit x with x ^ x >> shift == z: each pass fixes ``shift``
    more of its high bits."""
    x = z
    for _ in range(64 // shift):
        x = z ^ x >> shift
    return x


def state_of(output):
    """The SplitMix64 state whose output is ``output``: the finaliser's
    xor-shifts and odd multipliers are bijections of 64-bit words, undone
    in reverse order."""
    z = _unshift(output, 31) * pow(0x94D049BB133111EB, -1, 2 ** 64) & _MASK64
    z = _unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64) & _MASK64
    return _unshift(z, 30)


def index_reading(seed, draw, output):
    """The permutation k whose draw ``draw`` (no earlier one rejecting)
    reads counter k + 2 + draw, whose output is ``output``."""
    _, mixed = _splitmix_next(seed & _MASK64)
    counter = (state_of(output) - mixed) * pow(_GOLDEN, -1, 2 ** 64) % 2 ** 64
    assert reference_outputs(mixed, counter, counter + 1) == [output]
    return counter - 2 - draw


def rejecting_index(seed, draw):
    """The permutation k whose draw ``draw`` (no earlier one rejecting)
    reads counter k + 2 + draw at SplitMix state 0, whose output is 0."""
    return index_reading(seed, draw, 0)


def reference_outputs(mixed, start, stop):
    """The outputs at counters start..stop-1, one _splitmix_next call each
    from the state before counter start."""
    state = (mixed + (start - 1) * _GOLDEN) & _MASK64
    outputs = []
    for _ in range(start, stop):
        state, z = _splitmix_next(state)
        outputs.append(z)
    return outputs


def naive_estimate(game, seed, n):
    """Mean marginal of each player over permutations 0..n-1, walked one
    by one; position p of a permutation is player players[p - 1], which is
    bit p - 1 of the coalition mask that ``Game.at`` reads."""
    sums = [F(0)] * game.m
    for k in range(n):
        mask = 0
        for p in permutation_at(seed, game.m, k):
            after = mask | 1 << p - 1
            sums[p - 1] += game.at(after) - game.at(mask)
            mask = after
    return tuple(total / n for total in sums)


class TestPermutationStream:
    """The draws k = 0, 1, ... of one seed, as the estimator walks them."""

    def test_single_element(self):
        assert draws(123, 1, 50) == [(1,)] * 50

    def test_deterministic_for_a_seed(self):
        a = draws(99, 5, 100)
        assert a == draws(99, 5, 100)
        assert a != draws(100, 5, 100)

    def test_outputs_are_permutations(self):
        for perm in draws(5, 6, 200):
            assert sorted(perm) == [1, 2, 3, 4, 5, 6]

    def test_uniformity_chi_square_bound(self):
        counts = Counter(draws(2024, 3, 60_000))
        assert set(counts) == set(permutations((1, 2, 3)))
        for perm, n in counts.items():
            assert abs(n - 10_000) <= 500, f"{perm} drawn {n} times"

    def test_m_must_be_positive(self):
        with pytest.raises(ValidationError):
            permutation_at(0, 0, 0)

    @pytest.mark.parametrize("seed", [0, 1, 11, 2024, 2 ** 64 + 5, -3])
    def test_matches_the_reference_stream(self, seed, monkeypatch):
        # Chunks of 7 permutations: 300 draws span 43 of them.
        monkeypatch.setattr(cgt_module, "CHUNK", 7)
        for m in range(1, 10):
            want = [reference_permutation_at(seed, m, k) for k in range(300)]
            assert draws(seed, m, 300) == want
            if m >= 3:
                assert counted(seed, m, 0, 300) == Counter(want)
                assert counted(seed, m, 120, 300) == Counter(want[120:])
            if m >= 2:
                assert _step_counts(seed, m, 120, 300) == reference_steps(seed, m, 120, 300)

    @pytest.mark.parametrize("seed", [0, 2024])
    def test_chunks_match_the_reference_stream(self, seed):
        # Each run spans three chunks of the module's size.
        for m in range(3, 10):
            want = [reference_permutation_at(seed, m, k) for k in range(3 * CHUNK + 4)]
            for start in (0, 120, CHUNK - 1):
                stop = start + 2 * CHUNK + 5
                assert counted(seed, m, start, stop) == Counter(want[start:stop])

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_rejected_draw_matches_the_reference_stream(self, seed):
        # The first draw of permutation k reads output 0: below
        # 2^64 mod 3 = 1, so the draw from {0, 1, 2} rejects it and takes
        # the next output.
        k = rejecting_index(seed, 0)
        assert permutation_at(seed, 3, k) == reference_permutation_at(seed, 3, k)
        assert counted(seed, 3, k - 1, k + 2) == reference_counts(seed, 3, k - 1, k + 2)

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_a_rejection_at_a_later_draw_matches_the_reference_stream(self, seed):
        # With m = 4 the first draw is below 4 and never rejects (2^64 mod
        # 4 = 0); the second, below 3, reads output 0 and rejects it, so
        # the third draw reads one counter further than its window.
        k = rejecting_index(seed, 1)
        _, mixed = _splitmix_next(seed & _MASK64)
        assert _outputs(mixed, k + 2, k + 4)[1] == 0 < (1 << 64) % 3
        assert permutation_at(seed, 4, k) == reference_permutation_at(seed, 4, k)
        assert counted(seed, 4, k - 2, k + 3) == reference_counts(seed, 4, k - 2, k + 3)

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("m,draw", [(3, 0), (4, 1)])
    def test_a_rejection_next_to_a_chunk_boundary(self, seed, m, draw):
        # The rejecting permutation k is the last of its chunk, so it reads
        # on past the chunk's outputs, or the first of the next, so the
        # chunk before holds its rejected output in another window.
        k = rejecting_index(seed, draw)
        for start in (k - CHUNK + 1, k - CHUNK):
            stop = start + CHUNK + 3
            assert counted(seed, m, start, stop) == reference_counts(seed, m, start, stop)


class TestByteColumns:
    """Up to m = 32 _draw_columns reads each output's residues from its 8
    byte planes, and checks a chunk for rejections exactly only when some
    output is below 256; past 32 it maps the unpacked outputs."""

    def test_columns_are_the_outputs_mod_n(self):
        # Every modulus 2..34, on a full chunk and a partial one after it,
        # and on a lone partial chunk.
        rng = random.Random(38)
        for m in range(3, 35):
            seed, start = rng.getrandbits(64), rng.getrandbits(rng.choice((8, 64)))
            _, mixed = _splitmix_next(seed & _MASK64)
            for stop in (start + rng.randrange(1, 40), start + CHUNK + rng.randrange(1, 40)):
                zs = reference_outputs(mixed, start + 2, stop + m)
                chunks = list(_draw_columns(mixed, m, start, stop))
                assert len(chunks) == -(-(stop - start) // CHUNK)
                for k0, columns in zip(range(0, stop - start, CHUNK), chunks):
                    size = min(CHUNK, stop - start - k0)
                    assert [list(column) for column in columns] == \
                        [[z % n for z in zs[k0 + t:k0 + t + size]]
                         for t, n in enumerate(range(m, 1, -1))]

    @pytest.mark.parametrize("m,draw,output", [(3, 0, 1), (8, 1, 200), (20, 3, 255),
                                               (32, 0, 25), (32, 1, 100)])
    def test_an_output_below_256_that_no_draw_rejects(self, m, draw, output, monkeypatch):
        # Permutation k's draw ``draw`` reads the output, and the draws of
        # its neighbours read it below other moduli; it reaches 2^64 mod n
        # for every n <= m, so the chunk's exact check reads the outputs
        # and clears it, and no permutation is read alone.
        assert max((1 << 64) % n for n in range(2, m + 1)) <= output < 256
        checked = []

        def counted_outputs(mixed, start, stop, lanes=None):
            checked.append(start)
            return _outputs(mixed, start, stop, lanes)

        def no_draw(*args):
            raise AssertionError("read a permutation one at a time")

        monkeypatch.setattr(cgt_module, "_outputs", counted_outputs)
        monkeypatch.setattr(cgt_module, "_draw", no_draw)
        seed = 5
        _, mixed = _splitmix_next(seed & _MASK64)
        k = index_reading(seed, draw, output)
        for start in (k - 5, k - CHUNK + 1, k):
            stop = start + CHUNK + 3
            zs = reference_outputs(mixed, start + 2, stop + m)
            checked.clear()
            columns = next(_draw_columns(mixed, m, start, stop))
            assert checked == [start + 2]
            assert [list(column) for column in columns] == \
                [[z % n for z in zs[t:t + CHUNK]] for t, n in enumerate(range(m, 1, -1))]

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("m,draw,output", [(7, 0, 1), (12, 1, 4), (32, 1, 15), (30, 3, 24)])
    def test_an_output_below_256_that_a_draw_rejects(self, seed, m, draw, output):
        # Permutation k's draw ``draw``, below n = m - draw, reads an
        # output 0 < z < 2^64 mod n: the byte pre-check must look at bytes
        # 1..7 alone, or it would miss this rejection.
        assert 0 < output < (1 << 64) % (m - draw)
        k = index_reading(seed, draw, output)
        for start in (k - 2, k - CHUNK + 1):
            stop = start + CHUNK + 3
            assert counted(seed, m, start, stop) == reference_counts(seed, m, start, stop)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_a_threshold_above_255_rejects_past_32(self, seed):
        # 2^64 mod 271 = 265, so at m = 271 the first draw rejects output 260.
        m, output = 271, 260
        assert 256 <= output < (1 << 64) % m
        k = index_reading(seed, 0, output)
        _, mixed = _splitmix_next(seed & _MASK64)
        assert _draw(mixed, m, k)[0] != output % m
        assert counted(seed, m, k - 1, k + 2) == reference_counts(seed, m, k - 1, k + 2)

    def test_code_routes_count_past_255(self):
        seed = 3
        # At m = 5 each of the 120 codes fills a byte lane and is counted
        # about 330 times; at m = 6 the codes reach 719 in 2-byte lanes.
        perms = reference_counts(seed, 5, 0, 40_000)
        assert max(perms.values()) > 255
        assert _step_counts(seed, 5, 0, 40_000) == steps_of(perms, 5)
        assert _step_counts(seed, 6, 7, 5_000) == reference_steps(seed, 6, 7, 5_000)
        # The m = 6 tally against the draw tuples of the same columns.
        perms = counted(seed, 6, 0, 160_000)
        assert max(perms.values()) > 255
        assert _step_counts(seed, 6, 0, 160_000) == steps_of(perms, 6)


class TestStepCounts:
    """_step_counts takes its route from m: a popcount at m = 2, a count of
    mixed-radix codes up to m = 6, byte lanes from 7 to 16 and a walk over
    each tuple as drawn past 16. On every route its keys are those of a
    walk over each reference permutation."""

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("m,draw", [(3, 0), (4, 1), (5, 0), (6, 1), (7, 0), (8, 1), (12, 1),
                                        (16, 1), (17, 0)])
    def test_a_rejection_on_each_route(self, seed, m, draw, monkeypatch):
        # Draw ``draw`` is below n = m - draw, and 2^64 mod n is above 0,
        # so permutation k reads output 0 there and rejects it. The
        # windows hold k inside a chunk, as the last permutation of a chunk
        # and as the first of the next; each such chunk falls back on _draw.
        assert (1 << 64) % (m - draw) > 0
        read = []

        def counted_draw(mixed, m, k):
            read.append(k)
            return _draw(mixed, m, k)

        monkeypatch.setattr(cgt_module, "_draw", counted_draw)
        k = rejecting_index(seed, draw)
        for start in (k - 5, k - CHUNK + 1, k - CHUNK):
            stop = start + CHUNK + 3
            read.clear()
            assert _step_counts(seed, m, start, stop) == reference_steps(seed, m, start, stop)
            assert k in read

    def test_short_runs_count_each_step(self):
        rng = random.Random(44)
        for m in range(2, 9):
            seed, start = rng.getrandbits(64), rng.getrandbits(rng.choice((8, 64)))
            for size in (1, 2, 3):
                steps = _step_counts(seed, m, start, start + size)
                assert 0 not in steps.values()
                assert steps == reference_steps(seed, m, start, start + size)

    @pytest.mark.parametrize("seed,m,draw", [(0, 7, 0), (7, 7, 0), (0, 8, 1), (7, 8, 1),
                                             (0, 9, 1)])
    def test_pair_keys_on_runs_of_24_times_2_to_the_m(self, seed, m, draw):
        # From 24 * 2^m permutations on, 2-byte lanes count two steps a key
        # (at m = 8 the last step unpaired), and one permutation fewer takes
        # one key a step, as 4-byte lanes (m = 9) do at any length; the run
        # holds a rejecting permutation in its last chunk.
        k = rejecting_index(seed, draw)
        for size in (24 << m, (24 << m) - 1, (24 << m) + 5) if m <= 8 else (24 << m,):
            start = k - size + 3
            steps = _step_counts(seed, m, start, start + size)
            assert 0 not in steps.values()
            assert steps == reference_steps(seed, m, start, start + size)

    def test_ranges_across_chunks(self):
        rng = random.Random(34)
        for m in (*range(2, 21), 33):
            seed, start = rng.getrandbits(64), rng.getrandbits(rng.choice((8, 64)))
            for stop in (start, start + 1, start + CHUNK + rng.randrange(1, 40)):
                assert _step_counts(seed, m, start, stop) == reference_steps(seed, m, start, stop)


class TestTwoPlayers:
    """At m = 2 the one draw is the low bit of an output, never rejected;
    _step_counts counts the set bits of the packed lanes."""

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_output_0_is_draw_0_not_a_rejection(self, seed, monkeypatch):
        # Permutation k reads state 0, whose output 0 is a draw of 0; the
        # windows hold it inside a chunk and on either side of a boundary.
        def no_draw(*args):
            raise AssertionError("read a permutation one at a time")

        monkeypatch.setattr(cgt_module, "_draw", no_draw)
        k = rejecting_index(seed, 0)
        for start in (k - 1, k - CHUNK + 1, k - CHUNK, k):
            stop = start + CHUNK + 3
            assert _step_counts(seed, 2, start, stop) == reference_steps(seed, 2, start, stop)

    @pytest.mark.parametrize("seed", [0, 11, 2024])
    def test_runs_match_the_reference_stream(self, seed):
        for start in (0, CHUNK - 1):
            for size in (1, CHUNK, CHUNK + 1, 3 * CHUNK + 5, 5 * CHUNK + 3):
                steps = _step_counts(seed, 2, start, start + size)
                assert 0 not in steps.values()
                assert steps == reference_steps(seed, 2, start, start + size)
            assert _step_counts(seed, 2, start, start) == Counter()


class TestOutputs:
    """_packed computes a range of the stream in 128-bit lanes of one int,
    which _outputs unpacks; each lane must read as one step of the scalar
    generator."""

    @pytest.mark.parametrize("seed", [0, 11, 2024])
    def test_chunk_lengths(self, seed):
        # A chunk of CHUNK permutations reads CHUNK + m - 2 outputs.
        _, mixed = _splitmix_next(seed & _MASK64)
        for m in range(2, 13):
            for length in (0, 1, CHUNK + m - 2):
                for start in (2, 5000):
                    assert _outputs(mixed, start, start + length) == \
                        reference_outputs(mixed, start, start + length)

    @pytest.mark.parametrize("mixed", [0, 1, _MASK64, _GOLDEN, -_GOLDEN & _MASK64,
                                       1 << 63, (1 << 63) - 1])
    def test_states_that_wrap_past_2_to_the_64(self, mixed):
        # From mixed near 2^64, mixed + c * golden passes 2^64 within a lane
        # on most steps; counters near 2^64, and past it, wrap too.
        for start in (0, 1, 2 ** 64 - 40, 2 ** 64 - 1, 2 ** 64 + 3, -7):
            assert _outputs(mixed, start, start + 80) == \
                reference_outputs(mixed, start, start + 80)

    @pytest.mark.parametrize("mixed", [0, 1, _MASK64, _GOLDEN, -_GOLDEN & _MASK64,
                                       1 << 63, (1 << 63) - 1])
    def test_packed_low_bits_count_the_odd_outputs(self, mixed):
        # The m = 2 draw count, on the ranges of the wrapping test above
        # and around the counter that reads state 0.
        counter = -mixed * pow(_GOLDEN, -1, 2 ** 64) % 2 ** 64
        for start in (0, 1, 2 ** 64 - 40, 2 ** 64 - 1, 2 ** 64 + 3, -7,
                      counter - CHUNK, counter - 1, counter):
            for length in (1, 80, CHUNK + 3):
                z, ones = _packed(mixed, start, start + length)
                want = reference_outputs(mixed, start, start + length)
                assert (z & ones).bit_count() == sum(x & 1 for x in want)

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_counters_that_read_state_0(self, seed):
        # rejecting_index's counter (past 2^61 for these seeds) reads state
        # 0, whose output is 0; the ranges hold it near their end, second
        # and first.
        _, mixed = _splitmix_next(seed & _MASK64)
        counter = rejecting_index(seed, 0) + 2
        for start in (counter - CHUNK, counter - 1, counter):
            zs = _outputs(mixed, start, start + CHUNK + 3)
            assert zs == reference_outputs(mixed, start, start + CHUNK + 3)
            assert zs[counter - start] == 0

    @pytest.mark.parametrize("mixed", [0, _MASK64, _GOLDEN, -_GOLDEN & _MASK64, 1 << 63])
    def test_prebuilt_lane_constants(self, mixed):
        # The constants depend only on the length, so one set serves every
        # range of that length, wrapping states and counters included.
        for length in (1, 7, CHUNK + 6):
            lanes = _lanes(length)
            for start in (0, 2, 2 ** 64 - 40, 2 ** 64 - 1, 2 ** 64 + 3, -7):
                stop = start + length
                assert _outputs(mixed, start, stop, lanes) == _outputs(mixed, start, stop) \
                    == reference_outputs(mixed, start, stop)

    @pytest.mark.parametrize("size", [CHUNK, CHUNK + 1, 5 * CHUNK, 5 * CHUNK + 3, 3])
    def test_lane_constants_are_built_once_per_run(self, monkeypatch, size):
        # Every full chunk of a run shares one set, and a shorter last chunk
        # cuts its own from it.
        lengths = []

        def counted(n):
            lengths.append(n)
            return _lanes(n)

        monkeypatch.setattr(cgt_module, "_lanes", counted)
        for m in (2, 3, 5, 8, 12, 33):
            lengths.clear()
            assert _step_counts(11, m, 0, size) == reference_steps(11, m, 0, size)
            assert lengths == [1, min(CHUNK, size) + m - 2]  # the seed's mixing, then the run's

    def test_random_ranges(self):
        rng = random.Random(22)
        for _ in range(200):
            mixed, start = rng.getrandbits(64), rng.getrandbits(rng.choice((10, 64)))
            stop = start + rng.randrange(1101)
            assert _outputs(mixed, start, stop) == reference_outputs(mixed, start, stop)


class TestSampleCount:
    def test_formula_values(self):
        # ceil(r^2 ln(2m/alpha) / (2 eps^2))
        assert sample_count(F(1, 20), F(1, 20), 3, F(1)) == \
            math.ceil(math.log(120) / 0.005) == 958
        assert sample_count(F(1, 20), F(1, 20), 2, F(5)) == \
            math.ceil(25 * math.log(80) / 0.005) == 21911

    def test_parameters_beyond_float_range_are_counted_exactly(self):
        tiny, huge = F(1, 10 ** 400), F(10 ** 200)
        # ln(2m / alpha) = ln 6 + 400 ln 10 from logarithms of integers
        assert sample_count(F(1, 2), tiny, 3, F(1)) == 1846
        assert sample_count(F(1, 20), F(1, 20), 3, tiny) == 1
        assert sample_count(tiny, F(1, 20), 3, F(1)) == \
            math.ceil(F(10 ** 800, 2) * F(math.log(120)))
        assert sample_count(F(1, 20), F(1, 20), 3, huge) == \
            math.ceil(huge ** 2 * 200 * F(math.log(120)))

    def test_tighter_parameters_need_more_samples(self):
        base = sample_count(F(1, 20), F(1, 20), 3, F(1))
        assert sample_count(F(1, 40), F(1, 20), 3, F(1)) > base
        assert sample_count(F(1, 20), F(1, 40), 3, F(1)) > base


class TestConfig:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            CgtConfig(F(0), F(1, 20))
        with pytest.raises(ValidationError):
            CgtConfig(F(1, 20), F(1))
        with pytest.raises(ValidationError):
            CgtConfig(F(1, 20), F(1, 20), sample_count=0)


class TestEstimator:
    def test_constant_game_is_exact_for_any_sample_size(self):
        game = Game((1, 2, 3), lambda s: F(7), marginal_bound=F(0))
        config = CgtConfig(F(1, 20), F(1, 20), seed=3, sample_count=5)
        vector, diag = cgt_estimate(game, config)
        assert vector.scores == (F(0), F(0), F(0))
        assert diag.permutations == 5

    def test_dictator_within_epsilon(self, cls3_problem):
        game = waxp_game(cls3_problem)
        vector, diag = cgt_estimate(game, CgtConfig(F(1, 20), F(1, 20), seed=11))
        exact = shapley_exact(game)
        assert diag.permutations == 958
        for i in game.players:
            assert abs(vector.score(i) - exact.score(i)) <= F(1, 20)

    def test_piecewise_expected_within_epsilon(self, pw2_problem):
        game = expected_game(pw2_problem)
        vector, diag = cgt_estimate(game, CgtConfig(F(1, 20), F(1, 20), seed=11))
        assert diag.marginal_bound == 5
        assert abs(vector.score(1) - 0) <= F(1, 20)
        assert abs(vector.score(2) - F(1, 2)) <= F(1, 20)

    def test_deterministic_given_seed(self, pw2_problem):
        game = expected_game(pw2_problem)
        config = CgtConfig(F(1, 10), F(1, 10), seed=21)
        first, _ = cgt_estimate(game, config)
        second, _ = cgt_estimate(expected_game(pw2_problem), config)
        assert first.scores == second.scores

    def test_players_other_than_one_to_m(self):
        config = CgtConfig(F(1, 10), F(1, 10), seed=4, sample_count=50)
        for weights in ({3: 1, 7: 1}, {3: 2, 7: 5}):
            game = Game((3, 7), lambda s, w=weights: F(sum(w[i] for i in s)),
                        marginal_bound=F(5))
            vector, _ = cgt_estimate(game, config)
            # additive game: exact from any order
            assert vector.scores == shapley_exact(game).scores == (weights[3], weights[7])

    def test_tally_equals_a_walk_over_each_permutation(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a permutation")

        rng = random.Random(5)
        games = [expected_game(random_tabular_problem(rng, max_m=5)) for _ in range(4)]
        # One player: its one marginal, scored without a draw.
        games.append(Game((6,), lambda s: F(5) if s else F(-2, 3), marginal_bound=F(6)))
        # Players other than 1..m, in no sorted order, with interactions.
        weights = {9: F(3), 2: F(-1), 5: F(1, 2), 4: F(2)}
        games.append(Game((9, 2, 5, 4), lambda s: sum(weights[i] for i in s) ** 2
                          + (F(7) if {2, 9} <= s else F(0)), marginal_bound=F(200)))
        # m! above CHUNK: lanes, and 2 * CHUNK + 7 draws touch every
        # coalition, so the scores come from the game's table.
        for m in (7, 8, 9):
            model = random_tree_model(rng, m, max_depth=5, max_domain=2)
            games.append(expected_game(ExplanationProblem(
                model, random_instance(rng, model), SimilarityConfig.class_equality())))
        # 4-byte lanes at m = 12 and 16, m = 17 past them on the tuple walk,
        # two players counted by popcount and m = 33 (keys wider than 64
        # bits): the weights game widened, with an interaction between two
        # players.
        for m in (12, 16, 17, 2, 33):
            wide = {p: F(rng.randrange(-4, 5), rng.randrange(1, 4))
                    for p in rng.sample(range(1, 60), m)}
            pair = set(rng.sample(sorted(wide), 2))
            sixths = {p: int(6 * w) for p, w in wide.items()}  # the same sums, in ints
            games.append(Game(tuple(wide), lambda s, w=sixths, pair=pair:
                              F(sum(w[i] for i in s), 6) ** 2 + (7 if pair <= s else 0),
                              marginal_bound=F(2000)))
        for game in games:
            for seed, n in ((3, 1), (3, 40), (17, 250), (5, 2 * CHUNK + 7)):
                want = naive_estimate(game, seed, n)
                config = CgtConfig(F(1, 20), F(1, 20), seed=seed, sample_count=n)
                with monkeypatch.context() as patch:
                    if game.m == 1:
                        patch.setattr(cgt_module, "_draw_columns", no_draws)
                        patch.setattr(cgt_module, "_packed", no_draws)
                    vector, diag = cgt_estimate(game, config)
                assert diag.permutations == n
                assert vector.scores == want

    def test_no_score_depends_on_the_chunk_size(self, monkeypatch, cls3_problem,
                                                 pw2_problem):
        weights = {9: F(3), 2: F(-1), 5: F(1, 2), 4: F(2)}
        config = CgtConfig(F(1, 20), F(1, 20), seed=29, sample_count=3000)
        results = []
        for chunk in (1, 7, 1024):
            monkeypatch.setattr(cgt_module, "CHUNK", chunk)
            # m = 8 runs lanes of one shuffle at CHUNK = 1, and partial last
            # chunks at 7 and 1024.
            games = [waxp_game(cls3_problem), expected_game(pw2_problem),
                     Game((9, 2, 5, 4), lambda s: sum(weights[i] for i in s) ** 2,
                          marginal_bound=F(100)),
                     Game((9, 2, 5, 4, 11, 1, 8, 3),
                          lambda s: sum(weights.get(i, F(i, 3)) for i in s) ** 2
                          + (F(5) if {1, 9} <= s else F(0)), marginal_bound=F(400))]
            results.append([cgt_estimate(game, config)[0].scores for game in games])
        assert results[0] == results[1] == results[2]

    def test_wide_game_needs_no_table_over_coalitions(self):
        # 40 players: any table indexed by coalition mask would need 2^40
        # entries; the tally holds at most 50 * 40.
        players = tuple(range(1, 41))
        game = Game(players, lambda s: F(sum(s), 7), marginal_bound=F(40, 7))
        started = time.perf_counter()
        vector, _ = cgt_estimate(
            game, CgtConfig(F(1, 20), F(1, 20), seed=8, sample_count=50))
        assert vector.scores == tuple(F(i, 7) for i in players)
        assert time.perf_counter() - started < 10.0

    def test_zero_marginal_bound_draws_one_permutation(self):
        game = Game((1, 2), lambda s: F(3), marginal_bound=F(0))
        vector, diag = cgt_estimate(game, CgtConfig(F(1, 20), F(1, 20)))
        assert vector.scores == (F(0), F(0))
        assert diag.permutations == 1

    def test_zero_players_draw_nothing(self):
        def no_value(coalition):
            raise AssertionError("evaluated a coalition")

        # With no marginal bound, and with a sample count that would draw.
        for config in (CgtConfig(F(1, 20), F(1, 20)),
                       CgtConfig(F(1, 20), F(1, 20), sample_count=50)):
            vector, diag = cgt_estimate(Game((), no_value), config)
            assert vector == ScoreVector((), "custom", "cgt")
            assert diag.permutations == 0
        assert shapley_exact(Game((), lambda s: F(0))).scores == ()

    def test_draw_guard_stops_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a permutation")

        monkeypatch.setattr(cgt_module, "_step_counts", no_draws)
        for players in ((1, 2, 3), (1, 2)):
            game = Game(players, lambda s: F(len(s)), marginal_bound=F(1))
            for config in (CgtConfig(F(1, 10 ** 400), F(1, 20)),
                           CgtConfig(F(1, 100000), F(1, 20)),
                           CgtConfig(F(1, 20), F(1, 20), sample_count=cgt_module.DRAW_GUARD)):
                with pytest.raises(SizeLimitError):
                    cgt_estimate(game, config)

    def test_unbounded_game_needs_override(self):
        game = Game((1, 2), lambda s: F(len(s)))
        with pytest.raises(PreconditionError):
            cgt_estimate(game, CgtConfig(F(1, 20), F(1, 20)))
        vector, diag = cgt_estimate(
            game, CgtConfig(F(1, 20), F(1, 20), sample_count=100))
        assert vector.scores == (F(1), F(1))  # additive game: exact from any order
        assert diag.marginal_bound is None

    def test_unbiased_over_many_seeds(self, pw2_problem):
        # Grand mean over R independent runs approaches the exact values;
        # bound by three empirical standard errors per feature.
        game = expected_game(pw2_problem)
        exact = shapley_exact(game)
        runs = 200
        estimates = []
        for seed in range(runs):
            config = CgtConfig(F(1, 20), F(1, 20), seed=seed, sample_count=1000)
            vector, _ = cgt_estimate(game, config)
            estimates.append(vector.scores)
        for i in game.players:
            values = [float(est[i - 1]) for est in estimates]
            mean = sum(values) / runs
            var = sum((v - mean) ** 2 for v in values) / (runs - 1)
            stderr = (var / runs) ** 0.5
            assert abs(mean - float(exact.score(i))) <= 3 * max(stderr, 1e-12)

    def test_method_tag(self, cls3_problem):
        vector, _ = cgt_estimate(waxp_game(cls3_problem),
                                 CgtConfig(F(1, 4), F(1, 4), sample_count=10))
        assert vector.method == "cgt"
        assert vector.game == "waxp"


class TestValueSource:
    """The scores weight the tally by the game's table when the draws touch
    every coalition, and by the memo over the touched coalitions
    otherwise; both give the same scores."""

    @staticmethod
    def counted_game(game, calls):
        def charfn(coalition):
            calls.append("charfn")
            return game.charfn(coalition)

        def kernel():
            calls.append("kernel")
            return game.kernel()

        return Game(game.players, charfn, game.tag, game.marginal_bound, kernel)

    @staticmethod
    def binary_table_game(rng, m):
        space = FeatureSpace(tuple(
            Feature(i + 1, f"f{i + 1}", DiscreteDomain((0, 1))) for i in range(m)))
        model = TabularModel(space, [rng.choice((0, 1, F(1, 2), F(-2, 3)))
                                     for _ in range(space.size)])
        point = tuple(rng.randrange(2) for _ in range(m))
        return expected_game(ExplanationProblem(model, make_instance(model, point),
                                                SimilarityConfig.class_equality()))

    def test_a_sample_over_every_coalition_reads_the_table_once(self, cls3_problem, pw2_problem):
        rng = random.Random(31)
        for game in (waxp_game(cls3_problem), expected_game(cls3_problem),
                     self.binary_table_game(rng, 5), expected_game(pw2_problem)):
            calls = []
            config = CgtConfig(F(1, 20), F(1, 20), seed=3, sample_count=2000)
            vector, _ = cgt_estimate(self.counted_game(game, calls), config)
            assert calls == ["kernel"]
            assert vector.scores == naive_estimate(game, 3, 2000)

    def test_a_kernel_less_game_over_every_coalition_is_read_through_its_table(
            self, monkeypatch, pw2_problem):
        # A kernel-less game's table fills the memo once per coalition, under
        # the guard charge of 2^m coalitions that the estimator has passed;
        # pw2's expected game is copied here without its kernel.
        read, table = [], Game.table
        monkeypatch.setattr(Game, "table", lambda game: read.append(game) or table(game))
        custom = Game((1, 2, 3, 4), lambda s: sum(F(i, 3) for i in s) + (2 in s and 3 in s),
                        marginal_bound=F(7, 3))
        for game in (expected_game(pw2_problem), custom):
            calls, charges, m = [], [], game.m
            counted = Game(game.players, lambda s: calls.append(s) or game.charfn(s), game.tag,
                           game.marginal_bound, guard=lambda n, run: charges.append((n, run)))
            config = CgtConfig(F(1, 20), F(1, 20), seed=3, sample_count=300)
            read.clear()
            vector, _ = cgt_estimate(counted, config)
            assert read == [counted]
            assert len(calls) == len(set(calls)) == 1 << m
            assert charges == [(1 << m, "sampling"), (1 << m, "coalition table")]
            assert vector.scores == naive_estimate(game, 3, 300)

    def test_a_sparse_sample_never_reads_the_table(self):
        # T = 20 on 12 players touches at most 20 * 12 + 1 of 4096 coalitions.
        game = self.binary_table_game(random.Random(12), 12)
        calls = []
        config = CgtConfig(F(1, 20), F(1, 20), seed=5, sample_count=20)
        vector, _ = cgt_estimate(self.counted_game(game, calls), config)
        assert "kernel" not in calls
        assert 13 <= len(calls) <= 20 * 12 + 1
        assert vector.scores == naive_estimate(game, 5, 20)

    def test_a_table_past_the_point_guard_is_never_read(self, monkeypatch, cls3_problem):
        monkeypatch.setattr(cgt_module, "POINT_GUARD", 4)
        monkeypatch.setattr(games_module, "POINT_GUARD", 4)
        for game in (waxp_game(cls3_problem), expected_game(cls3_problem)):
            calls = []
            config = CgtConfig(F(1, 20), F(1, 20), seed=3, sample_count=500)
            vector, _ = cgt_estimate(self.counted_game(game, calls), config)
            assert calls == ["charfn"] * 8
            assert vector.scores == naive_estimate(game, 3, 500)


def seeded_tree_doc(seed, m, depth):
    """A binary decision tree over m binary features, drawn from ``seed``,
    whose leaves hold ints and fractions."""
    rng = random.Random(seed)
    nodes = []

    def grow(level, path):
        nid = len(nodes)
        nodes.append(None)
        free = [i for i in range(1, m + 1) if i not in path]
        if level < depth and free and (level < 2 or rng.random() < 0.85):
            feature = rng.choice(free)
            kids = [grow(level + 1, path | {feature}) for _ in range(2)]
            nodes[nid] = {"id": nid, "feature": feature,
                          "edges": [{"values": [v], "child": c} for v, c in enumerate(kids)]}
        else:
            nodes[nid] = {"id": nid, "value": rng.choice((0, 1, 2, "1/2", "-1/3", "5/4"))}
        return nid

    grow(0, frozenset())
    features = [{"id": i, "name": f"x{i}", "domain": {"type": "discrete", "values": [0, 1]}}
                for i in range(1, m + 1)]
    return {"version": 1, "kind": "tree", "value_kind": "numeric",
            "features": features, "root": 0, "nodes": nodes}


class TestPinnedReports:
    """`shap --method cgt` JSON reports, byte for byte, on models whose
    runs take each route: one Counter for the whole run (m <= 6), 2-byte
    lanes with every coalition touched (the m = 8 tree), and 4-byte lanes
    over a sample that leaves most coalitions untouched (the m = 12 tree at
    epsilon 1). The reg2 tree and the box model pw2 have m = 2, counted by
    popcount; both pw2 runs draw 21,911 permutations. The seeded trees at
    m = 4..9 draw 1,382-1,840 permutations, a full chunk and a shorter
    last one, and waxp at 1/50 draws 7,043 (m = 7) and 7,211 (m = 8),
    enough to count two steps a key. From m = 16 on epsilon 1 draws 4,
    and only the waxp game runs there, since the expected game's slices
    pass the point guard."""

    # name: (instance, seeded tree or None for a fixture, extra arguments)
    MODELS = {"cls3_tree": ("1,1,2", None, ()), "reg2_tree": ("1,1", None, ()),
              "pw2": ("1,1", None, ("--delta", "1/5")),
              "tree_m4": ("0,0,1,0", (4, 4, 4), ()),
              "tree_m5": ("0,0,0,1,0", (5, 5, 5), ()),
              "tree_m6": ("0,0,1,1,0,0", (6, 6, 5), ()),
              "tree_m7": ("0,1,0,1,1,0,0", (7, 7, 6), ()),
              "tree_m8": ("1,0,1,1,0,0,1,0", (2026, 8, 6), ()),
              "tree_m9": ("1,1,0,1,0,0,0,0,1", (9, 9, 6), ()),
              "tree_m12": ("0,1,1,0,1,0,0,1,1,0,1,0", (12, 12, 7), ()),
              "tree_m16": ("0,1,1,0,0,0,1,1,1,0,1,1,0,1,0,0", (16, 16, 7), ()),
              "tree_m17": ("1,0,1,0,0,0,1,0,0,0,0,1,1,0,0,0,1", (17, 17, 7), ()),
              "tree_m32": ("0,1,1,0,0,0,0,0,0,0,1,0,1,1,1,1,1,0,1,0,1,0,0,1,1,1,1,0,1,0,0,1",
                           (32, 32, 8), ()),
              "tree_m33": ("1,1,1,0,0,0,1,1,0,1,0,1,0,1,1,0,0,0,0,0,0,0,1,0,1,0,0,1,0,1,0,1,1",
                           (33, 33, 8), ())}
    DIGESTS = {
        ("cls3_tree", "waxp", "1/20"):
            "bd2e255fa854388c223aae3cb4d41cc8fe93f374c4f23fa9ef705a16f33045e1",
        ("cls3_tree", "expected", "1/10"):
            "d08fa8a8fe52f4a36c83c1e382c1c4cef7b4103d4111b8c71a34a76bdee35513",
        ("reg2_tree", "waxp", "1/20"):
            "97fecbd9a322f3d0af99cd96ccde21fd00b14994fbdde7145139094f7e6b5afd",
        ("reg2_tree", "expected", "1/10"):
            "a703acb7de67ddc9625c57f9ef017ae5d86f7278de19923526cc64dcb7e05807",
        ("pw2", "waxp", "1/100"):
            "ec5b8aa0fc46ae067d00126c9ff7bae1bdc8cca295578fab8a09713a456e6b9a",
        ("pw2", "expected", "1/20"):
            "fe012a32d0fb676654a503fc0035d4e8720d78676cbb1392aef05f244d548f05",
        ("tree_m4", "waxp", "1/25"):
            "a2a35783083221a77642e16a96b5c989e0c428bb732fad3674d7bd9accd37d5e",
        ("tree_m4", "expected", "1/10"):
            "43d8b607632d41279dd7104c3ac9b26d8fec4eb8b56f011034c8c20717efc61a",
        ("tree_m5", "waxp", "1/25"):
            "458a940e84f52cf865d1ffed793d12c8a8dcab41a20f55b3ad273b70a4f907d7",
        ("tree_m5", "expected", "1/10"):
            "77ad824d3df72a32291932dce965f421817b879a78a15f069dc50c554dd3af03",
        ("tree_m6", "waxp", "1/25"):
            "ced9ae3721e1e94fc04d3665c2bca69d57613362b241a46bc662469d50ef7772",
        ("tree_m6", "expected", "1/10"):
            "1ba819ed26635a60f80ced129e599a195059bac86c1b2f754b76651750092da6",
        ("tree_m7", "waxp", "1/25"):
            "2559823db344d65a5d2a4fa6dd866e8c06cda5fa3966fc324e178a31b1dada31",
        ("tree_m7", "waxp", "1/50"):
            "32f549acc2ed9d4a6d5ee58c33f655f2003e861685f3640392ac193fa0310848",
        ("tree_m7", "expected", "1/10"):
            "d87ec3978ddb56a8e701e6a260febff127b2494337607745e3b2dc85f4b85eba",
        ("tree_m8", "waxp", "1/20"):
            "3f387080fff2ba69ffdb0ba082f0eab3d922c27156a237f1cfbfcc4e8630fc95",
        ("tree_m8", "waxp", "1/50"):
            "d2c773340030a97ea6e6fcaa3fc01d1bcd927dac0000ebdef946c11f0c264350",
        ("tree_m8", "expected", "1/10"):
            "e413c065e1cd18326f6f56257a59edba151f02c5c7a441c3f9eb13e4382eb865",
        ("tree_m9", "waxp", "1/25"):
            "8b3d95b16ee16afd9f93ba88ef942e8f5f3f4b6c484763535471a99b639d0776",
        ("tree_m9", "expected", "1/10"):
            "18547955a2b19a58869c1150cbec1645e54d7a03a246741c9e3c8739cc9f5955",
        ("tree_m16", "waxp", "1"):
            "eb21cf34960b1ec42fea4a1c95226d39ef4f7a49a20380e6db417ac71a67fb0e",
        ("tree_m17", "waxp", "1"):
            "c645b5bc4cb8f905e2a7df607442ac33ba8f853ba08405753056ee558df35fc3",
        ("tree_m32", "waxp", "1"):
            "17028feeab2f5ba38f302c2aa0c25f0bf75638110a00e14db5dba8a8d681cab0",
        ("tree_m33", "waxp", "1"):
            "d7ac23ce0215ac881cc8d9f6b7d260290648db1e0e65ad20ada193db86b5446b",
        ("tree_m12", "waxp", "1"):
            "29a616f671fceb4c0fa353465f529b964fb6f8b73ffcdf443e923bf140889c2f",
        ("tree_m12", "expected", "1"):
            "83dbff77b873caba9d3a6c92b72cfd0837958d5e46860250a8204789b59ff176",
    }

    @pytest.mark.parametrize("name,game,epsilon", sorted(DIGESTS))
    def test_reports_keep_their_digests(self, tmp_path, monkeypatch, capsys,
                                        name, game, epsilon):
        instance, tree, extra = self.MODELS[name]
        path = FIXTURES / f"{name}.json"
        if tree is not None:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(seeded_tree_doc(*tree)))
        monkeypatch.chdir(path.parent)
        assert run_cli(["shap", "--model", path.name, "--instance", instance,
                        "--game", game, "--method", "cgt", "--epsilon", epsilon,
                        "--seed", "7", "--output", "json", *extra]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.DIGESTS[name, game, epsilon]
