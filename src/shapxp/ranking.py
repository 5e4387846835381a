"""Feature-importance rankings and rank-biased overlap between them.

Scores are ranked descending, either as-is (signed) or by absolute value,
with ties broken by ascending feature id so rankings are deterministic.
Rank-biased overlap weights agreement at depth d by p^(d-1); agreement at
depths beyond a ranking's length is computed on the whole list, so two
permutations of the same universe agree fully there. The returned value
is therefore capped at 1 - p^depth.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import SizeLimitError, ValidationError
from .games import ScoreVector
from .models import _Frozen, _set

SIGNED = "signed"
ABSOLUTE = "absolute"

DEFAULT_PERSISTENCE = Fraction(1, 2)
DEFAULT_DEPTH = 5
# p^depth has a denominator of depth * bits(denominator of p) bits; 10,000
# bits are about 3,000 decimal digits, under Python's int-to-str limit.
RBO_BITS_GUARD = 10_000


class Ranking(_Frozen):
    """Feature ids ordered from most to least important."""

    __slots__ = _fields = ("order", "mode")

    def __init__(self, order: tuple[int, ...], mode: str):
        if sorted(order) != list(range(1, len(order) + 1)):
            raise ValidationError("a ranking must be a permutation of 1..m")
        if mode not in (SIGNED, ABSOLUTE):
            raise ValidationError(f"unknown ranking mode {mode!r}")
        _set(self, "order", order)
        _set(self, "mode", mode)

    def __len__(self) -> int:
        return len(self.order)


def rank_features(scores: ScoreVector, mode: str = SIGNED) -> Ranking:
    """Order features by descending score (or |score|), ids ascending on
    ties."""
    if mode == SIGNED:
        key = scores.score
    elif mode == ABSOLUTE:
        key = lambda i: abs(scores.score(i))
    else:
        raise ValidationError(f"unknown ranking mode {mode!r}")
    order = sorted(range(1, scores.m + 1), key=lambda i: (-key(i), i))
    return Ranking(tuple(order), mode)


def rbo(a, b, persistence=DEFAULT_PERSISTENCE, depth: int = DEFAULT_DEPTH) -> Fraction:
    """Truncated rank-biased overlap of two rankings over one universe.

    rbo = (1 - p) * sum over d = 1..depth of p^(d-1) * A_d, where A_d is
    the fraction of shared elements among the top-d prefixes (prefixes cap
    at the list length). Symmetric, exact, and within [0, 1 - p^depth].
    """
    order_a = _order_of(a)
    order_b = _order_of(b)
    if set(order_a) != set(order_b) or len(order_a) != len(order_b):
        raise ValidationError("rankings compare only over the same feature universe")
    p = Fraction(persistence)
    if not 0 < p < 1:
        raise ValidationError("persistence must lie strictly between 0 and 1")
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    bits = p.denominator.bit_length()
    if depth * bits > RBO_BITS_GUARD:
        raise SizeLimitError(f"rbo guarded at depth * bits(denominator of persistence) "
                             f"<= {RBO_BITS_GUARD}, got {depth} * {bits}")
    m = len(order_a)
    seen_a: set = set()
    seen_b: set = set()
    overlap = 0
    acc = Fraction(0)
    weight = Fraction(1)
    for d in range(1, depth + 1):
        if d <= m:
            x, y = order_a[d - 1], order_b[d - 1]
            if x == y:
                overlap += 1
            else:
                overlap += (x in seen_b) + (y in seen_a)
            seen_a.add(x)
            seen_b.add(y)
            agreement = Fraction(overlap, d)
        else:
            agreement = Fraction(1)  # both prefixes are the whole universe
        acc += weight * agreement
        weight *= p
    return (1 - p) * acc


def _order_of(ranking) -> tuple[int, ...]:
    if isinstance(ranking, Ranking):
        return ranking.order
    return tuple(ranking)


# ---------------------------------------------------------------------------
# Score-vector comparison reports
# ---------------------------------------------------------------------------

class RankingComparison(NamedTuple):
    """Pairwise overlap of the rankings induced by two score vectors."""

    method_a: str
    method_b: str
    signed: Fraction
    absolute: Fraction


class ComparisonReport(NamedTuple):
    rankings: Mapping[str, Mapping[str, tuple[int, ...]]]
    pairs: tuple[RankingComparison, ...]


def compare_scores(vectors: Mapping[str, ScoreVector],
                   persistence=DEFAULT_PERSISTENCE,
                   depth: int = DEFAULT_DEPTH) -> ComparisonReport:
    """Rank each score vector both ways and report pairwise overlap."""
    names = list(vectors)
    rankings = {
        name: {
            SIGNED: rank_features(vec, SIGNED).order,
            ABSOLUTE: rank_features(vec, ABSOLUTE).order,
        }
        for name, vec in vectors.items()
    }
    pairs = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            pairs.append(RankingComparison(
                a, b,
                rbo(rankings[a][SIGNED], rankings[b][SIGNED], persistence, depth),
                rbo(rankings[a][ABSOLUTE], rankings[b][ABSOLUTE], persistence, depth),
            ))
    return ComparisonReport(rankings, tuple(pairs))


class BatchSummary(NamedTuple):
    """min/max/mean overlap per method pair over a batch of instances."""

    method_a: str
    method_b: str
    mode: str
    minimum: Fraction
    maximum: Fraction
    mean: Fraction


def summarize_comparisons(reports: Sequence[ComparisonReport]) -> tuple[BatchSummary, ...]:
    """Aggregate per-instance comparison reports into min/max/mean rows."""
    if not reports:
        raise ValidationError("cannot summarize an empty batch")
    buckets: dict[tuple[str, str, str], list[Fraction]] = {}
    for report in reports:
        for pair in report.pairs:
            buckets.setdefault((pair.method_a, pair.method_b, SIGNED), []).append(pair.signed)
            buckets.setdefault((pair.method_a, pair.method_b, ABSOLUTE), []).append(pair.absolute)
    rows = []
    for (a, b, mode), values in buckets.items():
        rows.append(BatchSummary(
            a, b, mode,
            min(values), max(values), sum(values, Fraction(0)) / len(values)))
    return tuple(rows)
