import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverdyn import funcspace
from coverdyn.covering import double_refines
from coverdyn.funcspace import (
    _slabs,
    build_function_model,
    pointwise_chain,
    pointwise_covering,
)
from coverdyn.scenarios import get_scenario
from coverdyn.space import ball_rows
from reference import reference_slabs


def _dist2(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def table(model, f):
    """The value table of function f, read off its point coordinates."""
    coords, d = model.space.points[f].coords, model.value_dim
    return tuple(tuple(coords[k : k + d]) for k in range(0, len(coords), d))


def in_pointwise_star(model, f, g, constraints):
    """Direct membership formula: per constrained (argument, radius) pair,
    some value that a function takes there holds both function values
    within the radius (arguments are independent)."""
    for arg, radius in constraints:
        fv = table(model, f)[arg]
        gv = table(model, g)[arg]
        centers = {table(model, h)[arg] for h in range(model.space.n)}
        r2 = radius * radius
        if not any(
            _dist2(fv, ctr) < r2 and _dist2(gv, ctr) < r2 for ctr in centers
        ):
            return False
    return True


def in_star(cov, f, g):
    """g lies in the covering star of the point f."""
    return bool((cov.star_mask(1 << f) >> g) & 1)


@pytest.fixture(scope="module")
def model():
    # scalar functions at the three arguments -1, 0 and 1
    tables = [
        [(0.0,), (0.0,), (0.0,)],
        [(-1.0,), (0.0,), (1.0,)],
        [(-0.5,), (0.0,), (0.5,)],
        [(1.0,), (0.0,), (1.0,)],
        [(0.5,), (0.5,), (0.5,)],
    ]
    labels = ["zero", "id", "half", "vee", "const"]
    return build_function_model(tables, labels)


def test_model_basics(model):
    assert model.space.n == 5
    zero = model.space.index_of("zero")
    assert model.value_dim == 1
    assert model.space.points[zero].coords == (0.0, 0.0, 0.0)
    assert table(model, model.space.index_of("id")) == ((-1.0,), (0.0,), (1.0,))
    assert model.values_at(2) == [(0.0,), (1.0,), (0.5,), (1.0,), (0.5,)]
    assert model.observed_values(1) == ((0.0,), (0.5,))
    assert model.observed_values(2) == ((0.0,), (0.5,), (1.0,))
    # the coordinates are the one copy of the tables
    assert not hasattr(model, "tables")


def test_duplicate_tables_rejected():
    with pytest.raises(ValueError):
        build_function_model([[(1.0,)], [(1.0,)]], ["a", "b"])


def test_pointwise_covering_members_cover(model):
    cov = pointwise_covering(model, [(0, 0.6)])
    union = 0
    for m in cov.members:
        union |= m
    assert union == model.space.full_mask


def test_pointwise_covering_label_names_its_constraints(model):
    cov = pointwise_covering(model, [(0, 1.0), (2, 0.25)])
    assert cov.label == "pw[0@1,2@0.25]"


def test_star_membership_two_routes(model):
    # covering-star route versus the direct per-argument formula
    for radii in ((0.6,), (0.3, 0.6), (1.2, 0.8, 0.4)):
        cons = list(enumerate(radii))
        cov = pointwise_covering(model, cons)
        for f, g in itertools.product(range(model.space.n), repeat=2):
            via_star = in_star(cov, f, g)
            via_formula = in_pointwise_star(model, f, g, cons)
            assert via_star == via_formula, (f, g, radii)


def test_unconstrained_argument_is_free(model):
    # constraining only the first argument ignores differences elsewhere
    cons = [(0, 0.2)]
    cov = pointwise_covering(model, cons)
    idf = model.space.index_of("id")
    vee = model.space.index_of("vee")
    zero = model.space.index_of("zero")
    # id(-1) = -1 and vee(-1) = 1 are far apart at the constrained argument
    assert not in_star(cov, idf, vee)
    # half(-1) = -0.5 and zero(-1) = 0: no common 0.2-ball center among values
    half = model.space.index_of("half")
    assert in_pointwise_star(model, half, zero, cons) == (
        in_star(cov, zero, half)
    )


def test_pointwise_chain_certifies(model):
    radii = [2.0, 0.5, 0.125]
    levels = [[(a, r) for a in range(3)] for r in radii]
    fam = pointwise_chain(model, levels)
    for i in range(1, fam.size):
        assert double_refines(fam.coverings[i], fam.coverings[i - 1])


def test_vector_valued_model():
    # values at the arguments (0, 0) and (1, 1)
    tables = [
        [(0.0, 0.0), (0.0, 0.0)],
        [(0.0, 0.0), (2.0, 2.0)],
        [(0.0, 0.0), (2.0, 1.0)],
    ]
    m = build_function_model(tables, ["zero", "two", "mix"], value_dim=2)
    assert m.values_at(1) == [(0.0, 0.0), (2.0, 2.0), (2.0, 1.0)]
    # the balls are centered at the observed values; at radius 1.2 the ball at (2,1)
    # holds both (2,2) and (2,1), while (0,0) stays separated
    cons = [(1, 1.2)]
    cov = pointwise_covering(m, cons)
    zero, two, mix = range(m.space.n)
    assert not in_star(cov, zero, two)
    assert in_star(cov, two, mix)


# multiples of 1/8 in [-2, 2]: differences, their squares and sums of squares
# are exact doubles, so the squared reference decides every tie exactly
DYADIC = st.integers(-16, 16).map(lambda k: k / 8)


def _value_case(values, centers, radius):
    """A one-argument model whose tables are `values`, balls around
    `centers`, or around the observed values when none, and a radius."""
    model = build_function_model(
        [[v] for v in values], [str(i) for i in range(len(values))], len(values[0])
    )
    return model, tuple(sorted(centers)) or model.observed_values(0), radius


@st.composite
def dyadic_cases(draw):
    dim = draw(st.integers(1, 3))
    value = st.tuples(*[DYADIC] * dim)
    values = draw(st.lists(value, min_size=1, max_size=8, unique=True))
    centers = draw(st.lists(value, max_size=4))
    # a radius equal to a gap between two values' coordinates makes ties
    gaps = sorted({abs(a[j] - b[j]) for a in values for b in values for j in range(dim)} - {0.0})
    if gaps and draw(st.booleans()):
        radius = draw(st.sampled_from(gaps))
    else:
        radius = abs(draw(DYADIC.filter(bool)))
    return _value_case(values, centers, radius)


def _kernel_ties(values, centers, radius):
    """Whether `ball_rows` puts a value at exactly the radius inside a ball;
    every other membership must match the squared distance."""
    r2 = radius * radius
    ties = False
    (balls,) = ball_rows(values, centers, [radius])
    for center, row in zip(centers, balls):
        for i, v in enumerate(values):
            d2 = sum((x - y) ** 2 for x, y in zip(v, center))
            if bool((row >> i) & 1) != (d2 < r2):
                # in 1-D and 2-D the kernel is exact on this grid; in 3-D
                # its rounding may put a value at exactly the radius inside
                assert len(v) == 3 and d2 == r2, (v, center, radius)
                ties = True
    return ties


@given(dyadic_cases())
@settings(max_examples=200, deadline=None)
# a 3-D tie: the exact distance of (2, 10, 11)/8 is 15/8, and the scaled
# kernel rounds it one ulp below
@example(_value_case([(0.0, 0.0, 0.0), (0.25, 1.25, 1.375)], [(0.0, 0.0, 0.0)], 1.875))
def test_slabs_match_squared_reference_on_a_dyadic_grid(case):
    model, centers, radius = case
    values = [p.coords for p in model.space.points]
    _kernel_ties(values, centers, radius)
    # the slabs are the balls around the observed values
    if not _kernel_ties(values, model.observed_values(0), radius):
        assert _slabs(model, 0, radius) == reference_slabs(model, 0, radius)


@pytest.mark.parametrize("name", ["composition", "exp_decay", "iterated_contractions"])
def test_builtin_families_match_reference_slabs(name, monkeypatch):
    sc = get_scenario(name)
    calls = []

    def recording(model, arg, radius):
        calls.append((arg, radius))
        return reference_slabs(model, arg, radius)

    monkeypatch.setattr(funcspace, "_slabs", recording)
    ref = get_scenario(name)
    assert calls
    assert [cov.members for cov in sc.family.coverings] == [cov.members for cov in ref.family.coverings]
    assert sc.testsets == ref.testsets
