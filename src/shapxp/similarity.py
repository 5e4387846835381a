"""Output indistinguishability: is a prediction observably different from
the one being explained?

Classification problems compare outputs for equality; regression problems
compare against a tolerance delta on the absolute output change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import NumericOutputError, ValidationError
from .models import NUMERIC, Instance, Model, Point, Value, predict

if TYPE_CHECKING:
    from .explanations import Sample

CLASS_EQUALITY = "class_equality"
THRESHOLD = "threshold"


@dataclass(frozen=True)
class SimilarityConfig:
    """How to decide that two model outputs are indistinguishable."""

    mode: str
    delta: Optional[Fraction] = None

    def __post_init__(self):
        if self.mode == CLASS_EQUALITY:
            if self.delta is not None:
                raise ValidationError("class-equality similarity carries no delta")
        elif self.mode == THRESHOLD:
            if self.delta is None or self.delta < 0:
                raise ValidationError("threshold similarity needs delta >= 0")
        else:
            raise ValidationError(f"unknown similarity mode {self.mode!r}")

    @classmethod
    def class_equality(cls) -> "SimilarityConfig":
        return cls(CLASS_EQUALITY)

    @classmethod
    def threshold(cls, delta) -> "SimilarityConfig":
        return cls(THRESHOLD, Fraction(delta))


@dataclass(frozen=True)
class ExplanationProblem:
    """A model, a target instance, the similarity notion tying them, and
    the universe explanations quantify over: the model's whole space when
    ``universe`` is None, else a sample's rows. The problem keeps its
    contrastive basis (see :func:`~shapxp.explanations.contrastive_basis`),
    which decides every sufficiency question."""

    model: Model
    instance: Instance
    similarity: SimilarityConfig
    universe: Sample | None = None
    _basis: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        actual = predict(self.model, self.instance.point)
        if actual != self.instance.prediction:
            raise ValidationError(
                f"instance prediction {self.instance.prediction!r} does not match "
                f"the model output {actual!r}")
        if self.similarity.mode == THRESHOLD and self.model.value_kind != NUMERIC:
            raise NumericOutputError("threshold similarity needs numeric model outputs")
        m = self.model.space.m
        for row in () if self.universe is None else self.universe.rows:
            if len(row) != m:
                raise ValidationError(f"sample row {row!r} does not have the model's {m} values")

    @property
    def feature_ids(self) -> tuple[int, ...]:
        return self.model.space.ids

    @property
    def scope(self) -> Model | Sample:
        """What answers the quantifiers: the sample, else the model."""
        return self.model if self.universe is None else self.universe


def similar_value(problem: ExplanationProblem, value: Value) -> bool:
    """Is ``value`` indistinguishable from the instance's prediction?"""
    p = problem.instance.prediction
    if problem.similarity.mode == CLASS_EQUALITY:
        return value == p
    return abs(Fraction(value) - Fraction(p)) <= problem.similarity.delta


def similar(problem: ExplanationProblem, x: Point) -> bool:
    """Is the model output at ``x`` indistinguishable from the one at the
    target instance?"""
    return similar_value(problem, predict(problem.model, x))
