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
    model = TabularModel(space, [reference[p] for p in space.points()], kind)
    assert model == TabularModel(space, outputs, kind)
    assert list(model.labelled_points()) == list(reference.items())
    assert dict(labelled_points(model)) == reference
    for slot, (point, y) in enumerate(reference.items()):
        assert model.output(point) == model.output(fresh(point)) == y
        assert space.slot(point) == space.slot(fresh(point)) == slot
    assert space.size == len(model.outputs) == len(reference)
    v = fresh(rng.choice(list(reference)))
    for fixed in subsets(space.ids):
        assert list(model.slice_outputs(v, frozenset(fixed))) == [
            y for point, y in reference.items() if all(point[j - 1] == v[j - 1] for j in fixed)]
    images = {y: f"c{k}" for k, y in enumerate(sorted(set(outputs), key=repr))}
    assert dict(labelled_points(model.relabel(images))) == {
        pt: images[y] for pt, y in reference.items()}


@pytest.mark.parametrize("seed", range(30))
def test_a_tabulated_tree_is_its_twin(seed):
    rng = random.Random(seed)
    tree = random_tree_model(rng, rng.randint(1, 5), categorical=seed % 2 == 1)
    table = dict(labelled_points(tree))
    twin = TabularModel(tree.space, [table[p] for p in tree.space.points()], tree.value_kind)
    assert tabulate(tree) == twin
    v = next(tree.space.points())
    for fixed in subsets(tree.space.ids):
        assert list(twin.slice_outputs(v, frozenset(fixed))) == \
            list(tree.slice_outputs(v, frozenset(fixed)))


def test_a_table_must_be_total():
    space, outputs, kind = random_table(random.Random(0))
    reference = dict(zip(space.points(), outputs))
    first = next(iter(reference))
    del reference[first]
    with pytest.raises(ValidationError) as exc:
        TabularModel(space, [reference.get(p) for p in space.points()], kind)
    assert str(exc.value) == f"table is not total: missing 1 points, e.g. {first}"
    with pytest.raises(ValidationError, match=r"^table is not total: missing 1 points"):
        TabularModel(space, [None] + outputs[1:], kind)
    with pytest.raises(ValidationError, match="outputs for"):
        TabularModel(space, outputs[1:], kind)


@pytest.mark.parametrize("point", [([0], 0, 0), (0, {}, 0), (0, 0, None), (0, 0), (0, 0, 0, 0)])
def test_an_unhashable_or_misshapen_point_is_a_domain_error(cls3_model, point):
    with pytest.raises(DomainError):
        predict(cls3_model, point)
