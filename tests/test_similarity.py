import random
from fractions import Fraction as F

import pytest

from shapxp import (
    DiscreteDomain,
    ExplanationProblem,
    Feature,
    FeatureSpace,
    NumericOutputError,
    Sample,
    SimilarityConfig,
    TabularModel,
    ValidationError,
    make_instance,
    similar,
    similar_value,
)
from shapxp.models import Instance
from shapxp.similarity import Dissimilar


class TestConfig:
    def test_threshold_needs_nonnegative_delta(self):
        with pytest.raises(ValidationError):
            SimilarityConfig.threshold(F(-1, 2))
        assert SimilarityConfig.threshold(0).delta == 0

    def test_the_mode_is_decided_by_delta(self):
        assert SimilarityConfig() == SimilarityConfig.class_equality()
        assert SimilarityConfig().mode == "class_equality"
        assert SimilarityConfig(F(1, 5)) == SimilarityConfig.threshold(F(1, 5))
        assert SimilarityConfig(F(1, 5)).mode == "threshold"
        assert SimilarityConfig.threshold(0).mode == "threshold"

    def test_threshold_needs_numeric_outputs(self):
        space = FeatureSpace((Feature(1, "a", DiscreteDomain((0, 1))),))
        model = TabularModel(space, ["no", "yes"], "categorical")
        with pytest.raises(NumericOutputError):
            ExplanationProblem(model, make_instance(model, (1,)),
                               SimilarityConfig.threshold(F(1)))

    def test_instance_must_match_model(self, reg2_model, cls3_model):
        with pytest.raises(ValidationError, match="does not match"):
            ExplanationProblem(reg2_model, Instance((1, 1), F(7)),
                               SimilarityConfig.class_equality())
        # So must a sample universe's rows, one value per feature: slices
        # index a row by feature, and the sufficiency table zips it with
        # the instance, which would drop the values past the shorter one.
        instance = make_instance(cls3_model, (1, 1, 2))
        for rows in (((0,), (1,)), ((1, 1, 2), (1, 1, 2, 0))):
            with pytest.raises(ValidationError, match="model's 3 values"):
                ExplanationProblem(cls3_model, instance, SimilarityConfig.class_equality(),
                                   Sample(rows, (F(0), F(1))))

    def test_the_first_sample_row_of_another_length_is_named(self, cls3_model):
        instance = make_instance(cls3_model, (1, 1, 2))
        rows = ((1, 1, 2), (1, 1, 2, 0), (0,), (1, 1, 2))
        with pytest.raises(ValidationError) as exc:
            ExplanationProblem(cls3_model, instance, SimilarityConfig.class_equality(),
                               Sample(rows, (F(0),) * len(rows)))
        assert str(exc.value) == "sample row (1, 1, 2, 0) does not have the model's 3 values"


class TestSimilar:
    def test_instance_point_always_similar(self, cls3_problem, reg2_problem,
                                           pw2_problem):
        for problem in (cls3_problem, reg2_problem, pw2_problem):
            assert similar(problem, problem.instance.point)

    def test_threshold_examples(self, pw2_problem):
        # output -2 differs from 1 by 3, far over delta = 1/5
        assert not similar(pw2_problem, (F(0), F(0)))
        # output 9/10 differs by 1/10, inside the band
        assert similar(pw2_problem, (F(9, 10), F(1)))

    def test_class_equality_examples(self, cls3_problem):
        assert similar(cls3_problem, (1, 0, 0))
        assert not similar(cls3_problem, (0, 1, 1))

    def test_monotone_in_delta(self, pw2_model):
        rng = random.Random(7)
        inst = make_instance(pw2_model, (F(1), F(1)))
        for _ in range(50):
            x = (F(rng.randrange(-8, 25), 16), F(rng.randrange(-8, 25), 16))
            small = ExplanationProblem(pw2_model, inst, SimilarityConfig.threshold(F(1, 5)))
            large = ExplanationProblem(pw2_model, inst, SimilarityConfig.threshold(F(2)))
            if similar(small, x):
                assert similar(large, x)

    def test_equality_invariant_under_relabeling(self, cls3_model, cls3_problem):
        relabel = {F(0): "a", F(1): "b", F(4): "c", F(7): "d"}
        relabeled = TabularModel(cls3_model.space, [relabel[v] for v in cls3_model.outputs],
                                 "categorical")
        problem = ExplanationProblem(relabeled, make_instance(relabeled, (1, 1, 2)),
                                     SimilarityConfig.class_equality())
        for pt in cls3_model.space.points():
            assert similar(problem, pt) == similar(cls3_problem, pt)

    def test_similar_value_direct(self, reg2_problem):
        assert similar_value(reg2_problem, F(1))
        assert not similar_value(reg2_problem, F(3, 2))


class TestBand:
    def test_the_band_is_exact_at_its_edges(self):
        """x / scale is distinguishable exactly when x < lo or x > hi, at
        each edge of the band, next to it and at random, for integer and
        fractional predictions of either sign, delta None, 0 or p/q, and
        scales from 1 to products of large primes."""
        rng = random.Random(52)
        primes = (1_000_003, 998_244_353, 2_147_483_647)
        scales = (1, 2, 3, 7, 12, primes[0] * primes[1], primes[1] * primes[2] * 7)
        checked = 0
        for _ in range(60):
            y0 = rng.choice((rng.randint(-40, 40), F(rng.randint(-400, 400), rng.randint(2, 90))))
            for delta in (None, F(0), F(rng.randint(1, 200), rng.randint(1, 90))):
                dissimilar = Dissimilar(y0, delta)
                for scale in scales:
                    lo, hi = dissimilar.band(scale)
                    assert type(lo) is int and type(hi) is int
                    edges = {lo - 1, lo, lo + 1, hi - 1, hi, hi + 1}
                    edges.update(rng.randint(lo - 3 * scale, hi + 3 * scale) for _ in range(4))
                    for x in edges:
                        assert (x < lo or x > hi) == dissimilar(F(x, scale)), (y0, delta, scale, x)
                        checked += 1
        assert checked > 6000
