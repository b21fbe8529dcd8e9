import itertools

import pytest

from coverdyn.covering import double_refines
from coverdyn.funcspace import (
    build_function_model,
    constraint,
    pointwise_chain,
    pointwise_covering,
)


def _dist2(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def in_pointwise_star(model, f, g, constraints):
    """Direct membership formula: per constrained argument, some center holds
    both function values within the radius (arguments are independent)."""
    for c in constraints:
        fv = model.tables[f.index][c.arg_index]
        gv = model.tables[g.index][c.arg_index]
        r2 = c.radius * c.radius
        if not any(
            _dist2(fv, ctr) < r2 and _dist2(gv, ctr) < r2 for ctr in c.centers
        ):
            return False
    return True


def in_star(cov, f, g):
    """g lies in the covering star of the point f."""
    return bool((cov.star_mask(1 << f.index) >> g.index) & 1)


@pytest.fixture(scope="module")
def model():
    # scalar functions on three arguments
    args = (-1.0, 0.0, 1.0)
    tables = [
        [(0.0,), (0.0,), (0.0,)],
        [(-1.0,), (0.0,), (1.0,)],
        [(-0.5,), (0.0,), (0.5,)],
        [(1.0,), (0.0,), (1.0,)],
        [(0.5,), (0.5,), (0.5,)],
    ]
    labels = ["zero", "id", "half", "vee", "const"]
    return build_function_model(args, tables, labels)


def test_model_basics(model):
    assert model.space.n == 5
    zero = model.space.by_id("zero")
    assert model.tables[zero.index] == ((0.0,), (0.0,), (0.0,))
    assert model.space.points[model.tables.index(((0.0,), (0.0,), (0.0,)))] == zero
    assert ((9.0,), (9.0,), (9.0,)) not in model.tables
    assert model.observed_values(1) == ((0.0,), (0.5,))


def test_duplicate_tables_rejected():
    with pytest.raises(ValueError):
        build_function_model(
            (0.0,), [[(1.0,)], [(1.0,)]], ["a", "b"]
        )


def test_pointwise_covering_members_cover(model):
    cov = pointwise_covering(model, [constraint(model, 0, 0.6)])
    union = 0
    for m in cov.members:
        union |= m
    assert union == model.space.full_mask


def test_pointwise_covering_label_names_its_constraints(model):
    cov = pointwise_covering(model, [constraint(model, 0, 1.0), constraint(model, 2, 0.25)])
    assert cov.label == "pw[0@1,2@0.25]"


def test_star_membership_two_routes(model):
    # covering-star route versus the direct per-argument formula
    for radii in ((0.6,), (0.3, 0.6), (1.2, 0.8, 0.4)):
        cons = [constraint(model, a, r) for a, r in enumerate(radii)]
        cov = pointwise_covering(model, cons)
        for f, g in itertools.product(model.space.points, repeat=2):
            via_star = in_star(cov, f, g)
            via_formula = in_pointwise_star(model, f, g, cons)
            assert via_star == via_formula, (f.pid, g.pid, radii)


def test_unconstrained_argument_is_free(model):
    # constraining only the first argument ignores differences elsewhere
    cons = [constraint(model, 0, 0.2)]
    cov = pointwise_covering(model, cons)
    idf = model.space.by_id("id")
    vee = model.space.by_id("vee")
    zero = model.space.by_id("zero")
    # id(-1) = -1 and vee(-1) = 1 are far apart at the constrained argument
    assert not in_star(cov, idf, vee)
    # half(-1) = -0.5 and zero(-1) = 0: no common 0.2-ball center among values
    half = model.space.by_id("half")
    assert in_pointwise_star(model, half, zero, cons) == (
        in_star(cov, zero, half)
    )


def test_pointwise_chain_certifies(model):
    radii = [2.0, 0.5, 0.125]
    levels = [[constraint(model, a, r) for a in range(3)] for r in radii]
    fam = pointwise_chain(model, levels)
    for i in range(1, fam.size):
        assert double_refines(fam.coverings[i], fam.coverings[i - 1])


def test_vector_valued_model():
    args = ((0.0, 0.0), (1.0, 1.0))
    tables = [
        [(0.0, 0.0), (0.0, 0.0)],
        [(0.0, 0.0), (2.0, 2.0)],
        [(0.0, 0.0), (2.0, 1.0)],
    ]
    m = build_function_model(args, tables, ["zero", "two", "mix"], value_dim=2)
    # centers default to observed values; at radius 1.2 the ball at (2,1)
    # holds both (2,2) and (2,1), while (0,0) stays separated
    cons = [constraint(m, 1, 1.2)]
    cov = pointwise_covering(m, cons)
    zero, two, mix = m.space.points
    assert not in_star(cov, zero, two)
    assert in_star(cov, two, mix)
