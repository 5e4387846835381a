"""The dense tabular representation against a plain dict reference.

A tabular model stores its outputs in lexicographic point order and reads
them by index arithmetic; every read must agree with the dict
{point: output} built from the same points and outputs.
"""

import random
from fractions import Fraction as F

import pytest

from shapxp import DomainError, TabularModel, ValidationError, predict
from shapxp.models import labelled_points, tabulate
from randmodels import random_table, random_tree_model, subsets


def fresh(point):
    """An equal point whose rational coordinates are other objects."""
    return tuple(F(x.numerator, x.denominator) if isinstance(x, F) else x for x in point)


@pytest.mark.parametrize("seed", range(60))
def test_dense_reads_agree_with_the_dict(seed):
    rng = random.Random(seed)
    space, outputs, kind = random_table(rng, categorical=seed % 2 == 1)
    reference = dict(zip(space.points(), outputs))
    model = TabularModel(space, outputs, kind)
    assert TabularModel.from_table(space, reference, kind) == model
    assert list(model.labelled_points()) == list(reference.items())
    for point, y in reference.items():
        assert model.output(point) == model.output(fresh(point)) == y
    assert model.table == reference
    assert dict(model.table) == reference
    assert len(model.table) == len(reference)
    assert ("zz",) * space.m not in model.table
    assert ([0],) * space.m not in model.table
    v = fresh(rng.choice(list(reference)))
    for fixed in subsets(space.ids):
        assert list(model.slice_outputs(v, frozenset(fixed))) == [
            y for point, y in reference.items() if all(point[j - 1] == v[j - 1] for j in fixed)]
    images = {y: f"c{k}" for k, y in enumerate(sorted(set(outputs), key=repr))}
    assert model.relabel(images).table == {pt: images[y] for pt, y in reference.items()}


@pytest.mark.parametrize("seed", range(30))
def test_a_tabulated_tree_is_its_twin(seed):
    rng = random.Random(seed)
    tree = random_tree_model(rng, rng.randint(1, 5), categorical=seed % 2 == 1)
    twin = TabularModel.from_table(tree.space, dict(labelled_points(tree)), tree.value_kind)
    assert tabulate(tree) == twin
    v = next(tree.space.points())
    for fixed in subsets(tree.space.ids):
        assert list(twin.slice_outputs(v, frozenset(fixed))) == \
            list(tree.slice_outputs(v, frozenset(fixed)))


def test_a_table_must_be_total_and_inside_its_space():
    space, outputs, kind = random_table(random.Random(0))
    reference = dict(zip(space.points(), outputs))
    first = next(iter(reference))
    del reference[first]
    reference[("zz",) * space.m] = outputs[0]
    with pytest.raises(ValidationError) as exc:
        TabularModel.from_table(space, reference, kind)
    assert str(exc.value) == (f"table is not total: missing 1 points, e.g. {first}; "
                              f"1 points outside the space, e.g. {('zz',) * space.m}")
    with pytest.raises(ValidationError, match=r"^table is not total: missing 1 points"):
        TabularModel(space, [None] + outputs[1:], kind)
    with pytest.raises(ValidationError, match="outputs for"):
        TabularModel(space, outputs[1:], kind)


@pytest.mark.parametrize("point", [([0], 0, 0), (0, {}, 0), (0, 0, None), (0, 0), (0, 0, 0, 0)])
def test_an_unhashable_or_misshapen_point_is_a_domain_error(cls3_model, point):
    with pytest.raises(DomainError):
        predict(cls3_model, point)
