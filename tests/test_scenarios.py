import inspect
import math
import random

import pytest

from coverdyn.compactness import is_bounded
from coverdyn.dynamics import NestingViolation
from coverdyn.scenarios import (
    BUILTIN_SCENARIOS,
    RANDOM_TESTSET_MAX_SIZE,
    SchemaError,
    SnapToleranceExceeded,
    get_scenario,
    load_system,
    scenario_to_config,
)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_builds_and_validates(name):
    sc = get_scenario(name)
    assert sc.space.n >= 1
    assert sc.family.size >= 2
    for ts in sc.testsets.values():
        assert is_bounded(ts, sc.family)
    assert sc.declared.snap_error < min_radius(sc) / 2


def min_radius(sc):
    # finest level's members are the smallest: use the declared chain label
    fine = sc.family.coverings[-1]
    # infer the scale from the largest member diameter at the finest level
    return {
        "decay_grid": 2.0 * 0.25**3,
        "iterated_contractions": 2.56 * 0.25**5,
        "composition": 2.56 * 0.25**5,
        "exp_decay": 0.015625,
    }[sc.name]


def test_exp_decay_witness_values():
    sc = get_scenario("exp_decay")
    f5 = sc.space.index_of("f5")
    # a point's coordinates are its flattened table: the value at the
    # argument (0, 0), then the value at (1, 1)
    coords = [p.coords for p in sc.space.points]
    # witnesses carry the doubled scaled-up values
    assert coords[f5][2:] == (64.0, 64.0)
    assert coords[f5][:2] == (0.0, 0.0)
    zero = sc.space.index_of("zero")
    img = sc.action.apply_fn((5, 5), f5)
    # scaling a witness by its own index lands on the doubled identity sample
    assert coords[img][2:] == (2.0, 2.0)
    assert math.hypot(*coords[img][2:]) == pytest.approx(
        2 * math.sqrt(2), abs=1e-15
    )
    deep = sc.action.apply_fn((40, 40), f5)
    assert deep == zero


def test_exp_decay_rejects_mixed_elements():
    sc = get_scenario("exp_decay")
    with pytest.raises(SchemaError):
        sc.action.apply_fn((1, 2), sc.space.index_of("f3"))


def test_contraction_action_exactness():
    sc = get_scenario("iterated_contractions")
    pts = sc.space.points
    p = sc.space.index_of("pow[0.25]e2")
    q = sc.action.apply_fn(3, p)
    assert pts[q].pid == "pow[0.25]e6"
    assert pts[sc.action.apply_fn(6, q)].pid == "i[0.25]"
    assert pts[sc.action.apply_fn(5, sc.space.index_of("i[1]"))].pid == "i[1]"


def test_composition_action_exactness():
    sc = get_scenario("composition")
    pts = sc.space.points
    p = sc.space.index_of("vee.e1")
    q = sc.action.apply_fn(0.25, p)
    assert pts[q].pid == "vee.e3"
    deep = sc.action.apply_fn(0.5**11, p)
    assert pts[deep].pid == "i[0]"


def test_composition_shifted_variant():
    sc = get_scenario("composition", x0=0.5)
    assert sc.expected.attractor == ("i[0.5]",)
    att = sc.space.index_of("i[0.5]")
    # its coordinates are its table: the value 0.5 at each of the three arguments
    assert sc.space.points[att].coords == (0.5,) * 3
    # the shifted scalings fix the shifted constant
    assert sc.action.apply_fn(0.25, att) == att


def test_unknown_scenario():
    with pytest.raises(SchemaError):
        get_scenario("nope")


def scenarios_equal(a, b):
    """Structural equality: spaces, families, filters, actions, and test sets."""
    if [p.pid for p in a.space.points] != [p.pid for p in b.space.points]:
        return False
    if [p.coords for p in a.space.points] != [p.coords for p in b.space.points]:
        return False
    if len(a.family.coverings) != len(b.family.coverings):
        return False
    for ca, cb in zip(a.family.coverings, b.family.coverings):
        if ca.members != cb.members:
            return False
    if a.filter_basis.depth != b.filter_basis.depth:
        return False
    for k in a.filter_basis.levels():
        if a.filter_basis.sampler(k) != b.filter_basis.sampler(k):
            return False
        for el in a.filter_basis.sampler(k):
            for p in range(a.space.n):
                ia, ib = a.action.apply_fn(el, p), b.action.apply_fn(el, p)
                if a.space.points[ia].pid != b.space.points[ib].pid:
                    return False
    if set(a.testsets) != set(b.testsets):
        return False
    for name in a.testsets:
        if a.space.pids(a.testsets[name]) != b.space.pids(b.testsets[name]):
            return False
    return a.expected.attractor == b.expected.attractor


# one non-default value per builder, so that the config carries more than
# the defaults
ROUND_TRIP_OVERRIDES = {
    "composition": {"x0": 0.5},
    "decay_grid": {"count": 201, "depth": 11},
    "exp_decay": {"window": 5},
    "iterated_contractions": {"chain_depth": 4},
}


@pytest.mark.parametrize(
    "name, overrides",
    [(n, o) for n in sorted(BUILTIN_SCENARIOS) for o in ({}, ROUND_TRIP_OVERRIDES[n])],
    ids=[f"{n}{suffix}" for n in sorted(BUILTIN_SCENARIOS) for suffix in ("", "-overrides")],
)
def test_config_round_trip(name, overrides):
    sc = get_scenario(name, **overrides)
    # the params are the builder's whole signature, overrides included
    assert set(sc.params) == set(inspect.signature(BUILTIN_SCENARIOS[name]).parameters)
    assert {k: sc.params[k] for k in overrides} == overrides
    if overrides:
        assert not scenarios_equal(sc, get_scenario(name))
    sc2 = load_system(scenario_to_config(sc))
    assert sc2.params == sc.params
    assert scenarios_equal(sc, sc2)


def test_load_custom_system():
    cfg = """
[scenario]
kind = "custom"
name = "mini"

[space]
kind = "line_grid"
count = 41

[family]
kind = "metric_chain"
eps0 = 2.0
depth = 2

[action]
kind = "halving_decay"

[filter]
kind = "integer_tails"
depth = 8
window = 4

[testsets]
whole = "all"
seed = [40]

[expectations]
attractor = [0]
kind = "both"
"""
    sc = load_system(cfg)
    assert sc.space.n == 41
    assert set(sc.testsets) == {"whole", "seed"}


def test_load_nesting_violation():
    cfg = """
[scenario]
kind = "custom"

[space]
kind = "line_grid"
count = 11

[family]
kind = "metric_chain"
eps0 = 2.0
depth = 1

[action]
kind = "identity"

[filter]
kind = "explicit"
levels = [[1, 2, 3], [2, 3], [5]]
"""
    with pytest.raises(NestingViolation):
        load_system(cfg)


def test_load_snap_tolerance_exceeded():
    # a coarse grid with a fine family: nearest-point snapping overshoots
    cfg = """
[scenario]
kind = "custom"

[space]
kind = "line_grid"
count = 11

[family]
kind = "metric_chain"
eps0 = 2.0
depth = 3

[action]
kind = "halving_decay"

[filter]
kind = "integer_tails"
depth = 6
window = 4
"""
    with pytest.raises(SnapToleranceExceeded):
        load_system(cfg)


def test_load_schema_errors():
    with pytest.raises(SchemaError):
        load_system("[scenario]\nkind = \"wat\"\n")
    with pytest.raises(SchemaError):
        load_system("[other]\nx = 1\n")
    with pytest.raises(SchemaError):
        load_system("[scenario]\nkind = not-json\n")
    custom = '[scenario]\nkind = "custom"\n[space]\nkind = "line_grid"\ncount = 21\n'
    custom += '[family]\nkind = "metric_chain"\neps0 = 2.0\ndepth = 2\n'
    with pytest.raises(SchemaError, match="unsupported action kind 'pow2_decay'"):
        load_system(custom + '[action]\nkind = "pow2_decay"\n')


COARSE_GRID = """
[scenario]
kind = "custom"
[space]
kind = "line_grid"
count = 21
[family]
kind = "metric_chain"
eps0 = 0.5
depth = 2
[action]
kind = "identity"
[filter]
kind = "integer_tails"
depth = 6
[testsets]
a = [0]
"""


def test_random_testsets_repair_only_unbounded_draws():
    # the coarsest balls of this grid have radius 0.5, so some draws are
    # unbounded; each is cut to a bounded subset, and every other draw and
    # the random state after it stay as drawn
    sc = load_system(COARSE_GRID)
    n = sc.space.n
    repaired = 0
    for seed in range(5):
        got = sc.random_bounded_testsets(random.Random(seed), count=50)
        rng = random.Random(seed)
        for ymask in got.values():
            k = min(rng.randint(1, RANDOM_TESTSET_MAX_SIZE), n)
            draw = sc.space.mask_of(rng.sample(range(n), k))
            assert ymask and is_bounded(ymask, sc.family)
            if is_bounded(draw, sc.family):
                assert ymask == draw
            else:
                assert ymask & ~draw == 0
                repaired += 1
    assert repaired


def test_random_bounded_testsets_deterministic():
    sc = get_scenario("decay_grid")
    a = sc.random_bounded_testsets(random.Random(9), count=5)
    b = sc.random_bounded_testsets(random.Random(9), count=5)
    assert a == b
    for v in a.values():
        assert is_bounded(v, sc.family)
