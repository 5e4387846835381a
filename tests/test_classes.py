"""The package's classes as records: each keeps its constructor, positional
and keyword, its equality and hash over the constructor's fields (what it
derives is left out), and refuses assignment; a cached property still
fills the instance ``__dict__``. The game alone may be reassigned, and so
has no hash.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from shapxp import (
    BoxPiecewiseModel,
    Cell,
    CgtConfig,
    CgtDiagnostics,
    ComplianceReport,
    DiscreteDomain,
    ExplanationProblem,
    Feature,
    FeatureSpace,
    Game,
    Instance,
    IntervalDomain,
    Ranking,
    Sample,
    ScoreVector,
    SimilarityConfig,
    TabularModel,
    TreeLeaf,
    TreeModel,
    TreeNode,
)
from shapxp.games import FeatureCompliance
from shapxp.ranking import BatchSummary, ComparisonReport, RankingComparison
from shapxp.similarity import Dissimilar
from conftest import rebuilt

BITS = DiscreteDomain((0, 1))
SPACE = FeatureSpace((Feature(1, "a", BITS), Feature(2, "b", DiscreteDomain(("x", "y")))))
LINE = FeatureSpace((Feature(1, "u", IntervalDomain(F(0), F(1))),))
CELLS = (Cell(((F(0), F(1, 2)),), F(0), (F(1),)), Cell(((F(1, 2), F(1)),), F(1), (F(0),)))
NODES = {1: TreeNode(1, (((0,), 2), ((1,), 3))), 2: TreeLeaf(F(0)), 3: TreeLeaf(F(1))}
TABLE = TabularModel(SPACE, (0, 1, 1, 0))
AT = Instance((0, "y"), 1)
COMPLIANCE = FeatureCompliance(1, True, F(1, 2))

# Each class with the keyword arguments of one call, in parameter order.
CALLS = [
    (DiscreteDomain, {"values": (0, 1)}),
    (IntervalDomain, {"lo": F(0), "hi": F(1)}),
    (Feature, {"id": 1, "name": "a", "domain": BITS}),
    (FeatureSpace, {"features": SPACE.features}),
    (TabularModel, {"space": SPACE, "outputs": (0, 1, 1, 0), "value_kind": "numeric"}),
    (TreeLeaf, {"value": F(1)}),
    (TreeNode, {"feature": 1, "edges": (((0,), 2), ((1,), 3))}),
    (TreeModel, {"space": SPACE, "nodes": NODES, "root": 1, "value_kind": "numeric"}),
    (Cell, {"box": ((F(0), F(1, 2)),), "intercept": F(0), "coeffs": (F(1),)}),
    (BoxPiecewiseModel, {"space": LINE, "bounds": ((F(0), F(1, 2)), (F(1, 2), F(1))),
                         "affines": ((F(0), F(1)), (F(1), F(0))), "value_kind": "numeric"}),
    (Instance, {"point": (0, "y"), "prediction": 1}),
    (SimilarityConfig, {"delta": F(1, 2)}),
    (Dissimilar, {"prediction": 1, "delta": F(1, 2)}),
    (Sample, {"rows": ((0, "x"), (1, "x")), "predictions": (0, 1)}),
    (ExplanationProblem, {"model": TABLE, "instance": AT,
                          "similarity": SimilarityConfig(), "universe": None}),
    (Game, {"players": (1, 2), "charfn": len, "tag": "custom", "marginal_bound": F(1)}),
    (ScoreVector, {"scores": (F(1), F(0)), "game": "waxp", "method": "exact"}),
    (FeatureCompliance, {"feature": 1, "relevant": True, "score": F(1, 2)}),
    (ComplianceReport, {"entries": (COMPLIANCE,)}),
    (CgtConfig, {"epsilon": F(1, 20), "alpha": F(1, 20), "seed": 3, "sample_count": 10}),
    (CgtDiagnostics, {"permutations": 10, "marginal_bound": F(1)}),
    (Ranking, {"order": (2, 1), "mode": "signed"}),
    (RankingComparison, {"method_a": "a", "method_b": "b", "signed": F(1, 2),
                         "absolute": F(1, 4)}),
    (ComparisonReport, {"rankings": {"a": {"signed": (1, 2)}}, "pairs": ()}),
    (BatchSummary, {"method_a": "a", "method_b": "b", "mode": "signed",
                    "minimum": F(0), "maximum": F(1), "mean": F(1, 2)}),
]
# A field that is a dict makes these unhashable, as it did the dataclasses;
# a game is unhashable because it may be reassigned.
UNHASHABLE = {TreeModel, ComparisonReport, Game}


def names(calls):
    return [cls.__name__ for cls, _ in calls]


@pytest.mark.parametrize("cls,kwargs", CALLS, ids=names(CALLS))
def test_positional_and_keyword_calls_build_equal_objects(cls, kwargs):
    by_position, by_keyword = cls(*kwargs.values()), cls(**kwargs)
    assert by_position == by_keyword and not by_position != by_keyword
    assert all(getattr(by_keyword, name) == value for name, value in kwargs.items())
    if cls not in UNHASHABLE:
        assert hash(by_position) == hash(by_keyword)
    else:
        with pytest.raises(TypeError):
            hash(by_position)


FROZEN = [(cls, kwargs) for cls, kwargs in CALLS if cls is not Game]


@pytest.mark.parametrize("cls,kwargs", FROZEN, ids=names(FROZEN))
def test_no_field_can_be_assigned_or_deleted(cls, kwargs):
    record = cls(**kwargs)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls,kwargs", CALLS, ids=names(CALLS))
def test_copies_and_pickles_are_equal(cls, kwargs):
    record = cls(**kwargs)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_a_game_may_be_reassigned_and_has_no_hash():
    game = Game((1, 2), len, kernel=list, guard=max)
    twin = copy.copy(game)
    assert (twin.kernel, twin.guard, twin._cache) == (list, max, {})
    game.charfn = lambda s: F(2)
    assert game.value({1}) == 2
    assert game == Game((1, 2), game.charfn) != Game((1, 2), len)
    with pytest.raises(TypeError):
        hash(game)


# Each class with an attribute it derives, which equality leaves out.
DERIVED = [
    (DiscreteDomain((0, 1)), "index"),
    (TabularModel(SPACE, (0, 1, 1, 0)), "firsts"),
    (TreeModel(SPACE, NODES, 1), "routes"),
    (BoxPiecewiseModel.from_cells(LINE, CELLS), "cuts"),
    (BoxPiecewiseModel.from_cells(LINE, CELLS), "lows"),
    (BoxPiecewiseModel.from_cells(LINE, CELLS), "highs"),
]


@pytest.mark.parametrize("record,attribute", DERIVED,
                         ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_equality_leaves_derived_attributes_out(record, attribute):
    twin = rebuilt(record)
    object.__setattr__(twin, attribute, None)
    assert twin == record
    if type(record) not in UNHASHABLE:
        assert hash(twin) == hash(record)
    assert f"{attribute}=" not in repr(record)


def test_cached_properties_fill_the_instance_dict():
    space = FeatureSpace(SPACE.features)
    assert space.size == 4 and vars(space)["size"] == 4
    problem = ExplanationProblem(TABLE, AT, SimilarityConfig())
    basis = problem.contrastive_basis
    assert vars(problem)["contrastive_basis"] is basis
    assert "contrastive_basis" not in vars(rebuilt(problem))
    assert rebuilt(problem) == problem


def test_records_are_unequal_to_other_classes_and_to_bare_tuples():
    assert ScoreVector((), "custom", "cgt") != ((), "custom", "cgt")
    assert Ranking((1,), "signed") != ((1,), "signed")
    assert IntervalDomain(F(0), F(1)) != (F(0), F(1))
    assert TreeLeaf(1) != Instance((), 1) and SimilarityConfig(None) != Dissimilar(None)


def test_repr_lists_the_constructor_fields():
    assert repr(IntervalDomain(F(0), F(1))) == \
        "IntervalDomain(lo=Fraction(0, 1), hi=Fraction(1, 1))"
    assert repr(Sample(((0,),), (1,))) == "Sample(rows=((0,),), predictions=(1,))"
    assert repr(ScoreVector((F(1),), "waxp", "exact")) == \
        "ScoreVector(scores=(Fraction(1, 1),), game='waxp', method='exact')"
