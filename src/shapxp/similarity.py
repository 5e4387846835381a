"""Output indistinguishability: is a prediction observably different from
the one being explained?

Classification problems compare outputs for equality; regression problems
compare against a tolerance delta on the absolute output change. The
predicates take the :class:`~shapxp.explanations.ExplanationProblem` that
carries a configuration.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import ValidationError
from .models import Point, Value, _Frozen, _set, predict

CLASS_EQUALITY = "class_equality"
THRESHOLD = "threshold"


class SimilarityConfig(_Frozen):
    """How to decide that two model outputs are indistinguishable: by
    class equality when ``delta`` is None, else by an absolute output
    change of at most ``delta``."""

    __slots__ = _fields = ("delta",)

    def __init__(self, delta: Fraction | None = None):
        if delta is not None and delta < 0:
            raise ValidationError("threshold similarity needs delta >= 0")
        _set(self, "delta", delta)

    @property
    def mode(self) -> str:
        return CLASS_EQUALITY if self.delta is None else THRESHOLD

    @classmethod
    def class_equality(cls) -> "SimilarityConfig":
        return cls()

    @classmethod
    def threshold(cls, delta) -> "SimilarityConfig":
        return cls(Fraction(delta))


class Dissimilar(namedtuple("Dissimilar", "prediction delta", defaults=(None,))):
    """The test that an output is distinguishable from ``prediction``:
    unequal to it when ``delta`` is None, else more than ``delta`` away.
    The discrete scopes call it once per distinct output object; a box
    model reads the band prediction +- delta itself (see
    :meth:`~shapxp.models.BoxPiecewiseModel.disagreements`)."""

    __slots__ = ()

    def __call__(self, value: Value) -> bool:
        return not _within(value, self.prediction, self.delta)


def _within(value: Value, p: Value, delta: Fraction | None) -> bool:
    if delta is None:
        return value == p
    return abs(Fraction(value) - Fraction(p)) <= delta


def similar_value(problem: ExplanationProblem, value: Value) -> bool:
    """Is ``value`` indistinguishable from the instance's prediction?"""
    return _within(value, problem.instance.prediction, problem.similarity.delta)


def similar(problem: ExplanationProblem, x: Point) -> bool:
    """Is the model output at ``x`` indistinguishable from the one at the
    target instance?"""
    return similar_value(problem, predict(problem.model, x))
