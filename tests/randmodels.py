"""Seeded random problem generation and brute-force oracles for the
property suites. The oracles deliberately stay naive: full lattice scans
and whole-subset filters, independent of the production search strategies."""

from fractions import Fraction
from itertools import chain, combinations, product

from shapxp import (
    DiscreteDomain,
    ExplanationProblem,
    Feature,
    FeatureSpace,
    Game,
    Sample,
    SimilarityConfig,
    TabularModel,
    TreeLeaf,
    TreeModel,
    TreeNode,
    is_waxp,
    is_wcxp,
    make_instance,
)
from shapxp.models import labelled_points

VALUE_POOL = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
LABELS = ("no", "yes", "maybe")
MIXED_VALUES = ("a", "b", "c", Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 3))


def rebuilt(obj, **changes):
    """A new ``obj`` with ``changes`` to its fields, built through its
    public constructor from its compared fields (``_fields``), so nothing
    it derived or cached is carried over: a problem comes back with no
    contrastive basis, a model re-validated."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


def random_tabular_problem(rng, max_m=5, max_domain=3):
    """A random numeric tabular model with a random target instance."""
    m = rng.randint(1, max_m)
    domains = [tuple(range(rng.randint(2, max_domain))) for _ in range(m)]
    space = FeatureSpace(tuple(
        Feature(i + 1, f"f{i + 1}", DiscreteDomain(domains[i])) for i in range(m)))
    while True:
        table = {pt: rng.choice(VALUE_POOL) for pt in product(*domains)}
        if len(set(table.values())) >= 2:
            break
    model = TabularModel(space, [table[p] for p in space.points()], "numeric")
    point = tuple(rng.choice(dom) for dom in domains)
    return ExplanationProblem(model, make_instance(model, point),
                              SimilarityConfig.class_equality())


def random_table(rng, max_m=4, max_domain=4, categorical=False, min_domain=2, m=None,
                 pool=None):
    """A random space whose domains mix labels and rationals, with a
    non-constant output per point in lexicographic order, drawn from
    ``pool`` when given. The first domain has two values or more."""
    m = m or rng.randint(1, max_m)
    space = FeatureSpace(tuple(
        Feature(i + 1, f"f{i + 1}", DiscreteDomain(tuple(rng.sample(
            MIXED_VALUES, rng.randint(min_domain if i else max(min_domain, 2), max_domain)))))
        for i in range(m)))
    pool = pool or (LABELS if categorical else VALUE_POOL)
    while True:
        outputs = [rng.choice(pool) for _ in space.points()]
        if len(set(outputs)) >= 2:
            return space, outputs, "categorical" if categorical else "numeric"


def random_tree_model(rng, m, max_depth=4, max_domain=3, categorical=False, mixed=False,
                      min_domain=2, pool=None):
    """A random tree over m discrete features; each node splits its
    feature's domain into two or more groups, so a feature of one value is
    never tested, and the first has two values or more. Domains are
    0..k-1, or with ``mixed`` draws from labels and rationals; leaves are
    drawn from ``pool`` when given."""
    sizes = (min_domain if i else max(min_domain, 2) for i in range(m))
    domains = [tuple(rng.sample(MIXED_VALUES, rng.randint(low, max_domain))) if mixed
               else tuple(range(rng.randint(low, max_domain))) for low in sizes]
    space = FeatureSpace(tuple(
        Feature(i + 1, f"f{i + 1}", DiscreteDomain(domains[i])) for i in range(m)))
    pool = pool or (LABELS if categorical else VALUE_POOL)
    while True:
        nodes = {}

        def build(free, depth):
            nid = len(nodes)
            nodes[nid] = None
            free = {j for j in free if len(domains[j - 1]) > 1}
            if depth == 0 or not free or rng.random() < 0.2:
                nodes[nid] = TreeLeaf(rng.choice(pool))
                return nid
            feature = rng.choice(sorted(free))
            values = list(domains[feature - 1])
            rng.shuffle(values)
            cuts = sorted(rng.sample(range(1, len(values)), rng.randint(1, len(values) - 1)))
            groups = [tuple(values[a:b]) for a, b in zip([0] + cuts, cuts + [len(values)])]
            nodes[nid] = TreeNode(feature, tuple(
                (group, build(free - {feature}, depth - 1)) for group in groups))
            return nid

        root = build(frozenset(range(1, m + 1)), max_depth)
        leaves = {n.value for n in nodes.values() if isinstance(n, TreeLeaf)}
        if len(leaves) >= 2:
            return TreeModel(space, nodes, root, "categorical" if categorical else "numeric")


def random_instance(rng, model):
    return make_instance(model, tuple(rng.choice(f.domain.values)
                                      for f in model.space.features))


def random_sample(rng, model):
    """Rows drawn from a discrete model's labelled points, with duplicates
    and partial coverage; small samples leave many coalitions with no
    matching row, which are vacuously sufficient."""
    points = list(labelled_points(model))
    rows = [rng.choice(points) for _ in range(rng.randint(1, 2 * len(points)))]
    return Sample(tuple(p for p, _ in rows), tuple(y for _, y in rows))


def with_similarity(problem, similarity):
    return rebuilt(problem, similarity=similarity)


def subsets(ids):
    return chain.from_iterable(combinations(ids, k) for k in range(len(ids) + 1))


def mask_of(ids):
    """The coalition mask of 1-based feature ids (bit j: feature j + 1),
    the form the scopes' slice methods read."""
    return sum(1 << i - 1 for i in set(ids))


def id_game(players, f, **kw):
    """A game whose function ``f`` reads each coalition as the frozenset
    of the player ids its mask holds (bit k: ``players[k]``); ``kw`` goes
    to ``Game``."""
    players = tuple(players)
    return Game(players, lambda S: f(frozenset(p for k, p in enumerate(players) if S >> k & 1)),
                **kw)


def brute_force_axps(problem):
    """All subset-minimal sufficient sets over the problem's universe, by
    scanning the whole lattice."""
    waxps = [frozenset(s) for s in subsets(problem.feature_ids)
             if is_waxp(problem, s)]
    minimal = [s for s in waxps if not any(o < s for o in waxps)]
    return set(minimal)


def brute_force_cxps(problem):
    wcxps = [frozenset(s) for s in subsets(problem.feature_ids)
             if is_wcxp(problem, s)]
    minimal = [s for s in wcxps if not any(o < s for o in wcxps)]
    return set(minimal)


def brute_force_hitting_sets(family):
    """All minimal hitting sets by filtering every subset of the union."""
    universe = sorted(set().union(*family))
    hitting = [frozenset(s) for s in subsets(universe)
               if all(set(s) & f for f in family)]
    return {h for h in hitting if not any(o < h for o in hitting)}
