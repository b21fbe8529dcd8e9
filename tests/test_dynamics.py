import collections
import dataclasses
import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdyn import compactness
from coverdyn.cli import RunConfig
from coverdyn.compactness import default_cap, is_bounded, star_measure
from coverdyn.covering import AdmissibleFamily, CheckResult, make_covering_masks, metric_chain_family
from coverdyn.dynamics import (
    HYPOTHESIS_NAMES,
    Action,
    FilterBasis,
    NestingViolation,
    absorbs,
    attracts,
    check_dissipativity,
    check_hypotheses,
    integer_tails,
    nat_add,
    nat_mul,
    omega_limit,
    orbit_mask,
    orbit_rows,
    prolongational_limit,
    scaling_tails,
    vector_add,
    vector_tails,
    verify_eventual_compactness,
)
from coverdyn.proximity import (
    sets_equal_at_resolution,
    subset_at_resolution,
)
from coverdyn.scenarios import BUILTIN_SCENARIOS, get_scenario, load_system
from coverdyn.space import CoverdynError, iter_bits, line_grid
from reference import (
    divergent_sequence,
    prox_form_attracts,
    reference_attracts,
    reference_check_associativity,
    reference_check_hypotheses,
    reference_closure_mask,
    reference_limit_compact,
    reference_limit_witnesses,
    reference_orbit_mask,
    reference_point_balls,
)
from test_covering import random_cover_families


@pytest.fixture(scope="module")
def grid():
    return line_grid(0.0, 1.0, 101)


@pytest.fixture(scope="module")
def fam(grid):
    # finest ball radius 0.03125: above twice the worst decay snap error
    return metric_chain_family(grid, 2.0, 3)


@pytest.fixture(scope="module")
def tails():
    return integer_tails(nat_add(), depth=10, window=8)


@pytest.fixture(scope="module")
def decay(grid):
    # geometric decay realized as exact index halving: associative on the grid
    return Action(semigroup=nat_add(), space=grid, apply_fn=lambda t, i: i >> t)


@pytest.fixture(scope="module")
def identity_action(grid):
    return Action(
        semigroup=nat_add(),
        space=grid,
        apply_fn=lambda t, i: i,
    )


def pick(grid, *idx):
    return grid.mask_of(idx)


def test_action_associativity(decay):
    assert decay.check_associativity(range(6)) is None


def test_associativity_reports_first_violating_triple(grid):
    # element 1 sends every point to 0, element 2 is the identity, so 1 + 1
    # disagrees with 1 applied twice first at point 1
    action = Action(semigroup=nat_add(), space=grid, apply_fn=lambda t, i: 0 if t == 1 else i)
    assert action.check_associativity((0, 1)) == (1, 1, 1)
    assert reference_check_associativity(action, (0, 1)) == (1, 1, 1)


@st.composite
def self_map_actions(draw):
    # nat_add acts on n points as t -> f^t, an action, or through one drawn
    # map per element up to 6, the largest sum of two sampled elements
    n = draw(st.integers(1, 6))
    maps = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    associative = draw(st.booleans())
    if associative:
        f = draw(maps)

        def apply_fn(t, i):
            for _ in range(t):
                i = f[i]
            return i
    else:
        table = draw(st.lists(maps, min_size=7, max_size=7))
        apply_fn = lambda t, i: table[t][i]
    elements = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    return n, apply_fn, elements, associative


@given(self_map_actions())
@settings(max_examples=200, deadline=None)
def test_associativity_rows_match_point_by_point_triples(case):
    n, apply_fn, elements, associative = case
    action = Action(semigroup=nat_add(), space=line_grid(0.0, 1.0, n), apply_fn=apply_fn)
    got = action.check_associativity(elements)
    assert got == reference_check_associativity(action, elements)
    if associative:
        assert got is None


@pytest.mark.parametrize("image", [101, -1, True])
def test_image_row_rejects_a_value_that_is_no_point_index(grid, image):
    # 101 is one past the last point of the grid; a bool is an int subclass
    action = Action(semigroup=nat_add(), space=grid, apply_fn=lambda t, i: image if i == 7 else i)
    with pytest.raises(CoverdynError, match=f"element 3 sends point 7 to {image!r}"):
        action.image_indices(3)
    with pytest.raises(CoverdynError):
        orbit_mask(0, 1, action, integer_tails(nat_add(), depth=0, window=4))


def test_semigroup_associativity_samples():
    for sem in (nat_add(), nat_mul(), vector_add(2)):
        els = sem.sample(4)
        for a, b, c in itertools.product(els, repeat=3):
            assert sem.compose(sem.compose(a, b), c) == sem.compose(a, sem.compose(b, c))


def test_orbit_identity_level_contains_y(identity_action, grid, tails):
    Y = pick(grid, 3, 9)
    assert Y & ~orbit_mask(0, Y, identity_action, tails) == 0


def test_orbit_decay_values(decay, grid, tails):
    got = orbit_mask(4, pick(grid, 100), decay, tails)
    assert got == pick(grid, *{100 >> t for t in range(4, 12)})


def test_orbit_invariant_set(decay, grid, tails):
    zero = pick(grid, 0)
    for k in tails.levels():
        assert orbit_mask(k, zero, decay, tails) == zero


def test_divergent_sequence_blocks(tails):
    seq = divergent_sequence(tails)
    # block k is drawn from level k: membership holds at its own level
    for k, el in seq:
        assert tails.contains(el, k)
    ks = [k for k, _ in seq]
    assert ks == sorted(ks)


def test_filter_nesting_violation():
    sem = nat_add()
    with pytest.raises(NestingViolation):
        FilterBasis(
            semigroup=sem,
            depth=2,
            contains=lambda el, k: el >= k,
            sampler=lambda k: (0,),  # level 1 sample escapes level 1
        )


def test_omega_decay_singleton_is_zero(decay, grid, fam, tails):
    rep = omega_limit(pick(grid, 100), tails, decay, fam)
    assert sets_equal_at_resolution(rep.mask, pick(grid, 0), fam)
    assert rep.resolution == fam.depth
    assert rep.truncation == tails.depth
    # every reported point carries a witness landing in its finest star
    fine = fam.coverings[-1]
    for i, (el, src) in rep.witnesses.items():
        img = decay.apply_fn(el, src)
        assert (fine.point_star[i] >> img) & 1
    assert sum(1 << i for i in rep.witnesses) == rep.mask


def test_omega_invariant_closed_set(identity_action, grid, tails):
    # a closed invariant set is its own limit set (exact, with a resolving family)
    sharp = metric_chain_family(grid, 2.0, 5)
    Y = sharp.closure_mask(pick(grid, 10, 11, 40))
    rep = omega_limit(Y, tails, identity_action, sharp)
    assert rep.mask == Y


def test_prolongational_contains_fixed_point(decay, grid, fam, tails):
    rep = prolongational_limit(0, tails, decay, fam)
    assert rep.mask & 1


def test_omega_subset_of_prolongational(decay, grid, fam, tails):
    for x in (0, 30, 100):
        om = omega_limit(1 << x, tails, decay, fam)
        jl = prolongational_limit(x, tails, decay, fam)
        assert om.mask & ~jl.mask == 0


def test_compact_vs_open_limit_inclusions(decay, grid, fam, tails):
    # for a finite set K: omega(K) within J(K); for an open star U: J(U) within
    # omega(U), both at resolution
    def prolongational_union(mask):
        out = 0
        for x in iter_bits(mask):
            out |= prolongational_limit(x, tails, decay, fam).mask
        return out

    K = pick(grid, 20, 60)
    omK = omega_limit(K, tails, decay, fam).mask
    assert subset_at_resolution(omK, prolongational_union(K), fam)

    U = reference_point_balls(grid, 0.03125)[40]
    omU = omega_limit(U, tails, decay, fam).mask
    assert subset_at_resolution(prolongational_union(U), omU, fam)


def test_attracts_invariant_subset(decay, grid, fam, tails):
    zero = pick(grid, 0)
    rep = attracts(zero, zero, tails, decay, fam)
    assert rep.attracted
    assert set(rep.levels.values()) == {0}
    assert prox_form_attracts(zero, zero, tails, decay, fam)


def test_attracts_decay_whole_grid(decay, grid, fam, tails):
    rep = attracts(pick(grid, 0), grid.full_mask, tails, decay, fam)
    assert rep.attracted
    assert prox_form_attracts(pick(grid, 0), grid.full_mask, tails, decay, fam)


def test_attracts_failure_witness(identity_action, grid, fam, tails):
    # the identity action never pulls a far point into fine stars of {0}
    rep = attracts(pick(grid, 0), pick(grid, 80), tails, identity_action, fam)
    assert not rep.attracted
    assert not prox_form_attracts(pick(grid, 0), pick(grid, 80), tails, identity_action, fam)
    idx, (el, z, img) = sorted(rep.failures.items())[0]
    assert img == 80


@pytest.mark.parametrize("action_name", ["decay", "identity_action"])
def test_attracts_matches_prox_form_on_grid(request, action_name, grid, fam, tails):
    action = request.getfixturevalue(action_name)
    sets = [
        pick(grid, 0),
        pick(grid, 80),
        pick(grid, 100),
        pick(grid, 20, 60),
        reference_point_balls(grid, 0.1)[0],
        grid.full_mask,
    ]
    for Y, Z in itertools.product(sets, repeat=2):
        rep = attracts(Y, Z, tails, action, fam)
        assert rep.attracted == prox_form_attracts(Y, Z, tails, action, fam), (Y, Z)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_attracts_matches_prox_form_on_scenarios(name):
    # the declared attractor and each declared test set against the declared
    # test sets and eight seeded random ones
    sc = get_scenario(name)
    F, action, family = sc.filter_basis, sc.action, sc.family
    targets = {**sc.testsets, **sc.random_bounded_testsets(random.Random(0), count=8)}
    attractors = {"attractor": sc.attractor_points(), **sc.testsets}
    for (yname, Y), (zname, Z) in itertools.product(attractors.items(), targets.items()):
        rep = attracts(Y, Z, F, action, family)
        assert rep.attracted == prox_form_attracts(Y, Z, F, action, family), (yname, zname)


def test_absorbs_decay_arithmetic(decay, grid, fam, tails):
    # least level pulling {1} inside the open 0.1-ball around 0
    Y = reference_point_balls(grid, 0.1)[0]
    assert absorbs(Y, pick(grid, 100), tails, decay) == 4
    assert absorbs(pick(grid, 0), pick(grid, 0), tails, decay) == 0


def test_absorbs_absent(identity_action, grid, tails):
    assert absorbs(pick(grid, 0), pick(grid, 80), tails, identity_action) is None


def basis_with(F, s_samples=None, enumeration_bound=None):
    """F with the inputs `check_hypotheses` reads from it replaced: its
    semigroup samples `s_samples`, and an enumerable level is listed up to
    `enumeration_bound` in place of `ENUMERATION_BOUND`."""
    if s_samples is not None:
        F = dataclasses.replace(
            F, semigroup=dataclasses.replace(F.semigroup, sample=lambda _: s_samples)
        )
    if enumeration_bound is not None and F.enumerate_level is not None:
        listing = F.enumerate_level
        F = dataclasses.replace(F, enumerate_level=lambda j, _: listing(j, enumeration_bound))
    return F


def default_level(F):
    # the headroom of 4 below the depth that these tests check up to
    return max(0, F.depth - 4)


def test_hypotheses_additive_all_pass(tails):
    rep = check_hypotheses(tails, max_level=default_level(tails))
    assert [c.name for c in rep.checks] == sorted(HYPOTHESIS_NAMES)
    assert rep.all_passed


def test_hypotheses_multiplicative_h3_fails():
    F = integer_tails(nat_mul(), depth=8, window=4, start=1)
    rep = check_hypotheses(basis_with(F, s_samples=(1, 2, 3)), max_level=default_level(F))
    assert rep.passed("left_translate_into")
    assert rep.passed("right_translate_into")
    # odd numbers never lie in a doubled tail
    assert rep.check("within_right_translate") == CheckResult(
        "within_right_translate", False, "s=2 level=0 blocker=1"
    )
    assert rep.check("within_left_translate") == CheckResult(
        "within_left_translate", False, "s=2 level=0 blocker=1"
    )


def test_hypotheses_scaling_basis():
    F = scaling_tails(depth=10, window=3)
    rep = check_hypotheses(basis_with(F, s_samples=(0.5, 0.25)), max_level=4)
    assert rep.all_passed


def test_hypotheses_vector_tails():
    F = vector_tails(2, depth=10, window=4)
    rep = check_hypotheses(basis_with(F, s_samples=((0, 0), (1, 1), (2, 1))), max_level=4)
    assert rep.all_passed


def assert_hypotheses_match_reference(F, s_samples=None, enumeration_bound=1000, max_level=None):
    """`check_hypotheses` on F with these inputs equals the reference, which
    takes them as parameters; a `max_level` of None is the reference's
    default, depth minus 4."""
    got = check_hypotheses(
        basis_with(F, s_samples, enumeration_bound),
        max_level=default_level(F) if max_level is None else max_level,
    )
    assert got == reference_check_hypotheses(
        F, s_samples=s_samples, enumeration_bound=enumeration_bound, max_level=max_level
    )


def explicit_basis(level_sets):
    """A sampler-only basis over nat_add, built as the config `explicit` filter is."""
    return FilterBasis(
        semigroup=nat_add(),
        depth=len(level_sets) - 1,
        contains=lambda el, k: el in level_sets[k],
        sampler=lambda k: tuple(sorted(level_sets[k])),
    )


@st.composite
def nested_level_sets(draw, depth):
    levels = [draw(st.frozensets(st.integers(0, 12), min_size=1))]
    for _ in range(depth):
        levels.append(draw(st.frozensets(st.sampled_from(sorted(levels[-1])), min_size=1)))
    return levels


@st.composite
def hypothesis_inputs(draw):
    kind = draw(st.sampled_from(["nat_add", "nat_mul", "vector", "scaling", "explicit", "listed"]))
    depth = draw(st.integers(0, 8))
    window = draw(st.integers(1, 4))
    if kind in ("nat_add", "nat_mul"):
        sem = nat_add() if kind == "nat_add" else nat_mul()
        F = integer_tails(sem, depth=depth, window=window, start=draw(st.integers(0, 3)))
        element = st.integers(0, 6)
    elif kind == "vector":
        dim = draw(st.integers(1, 3))
        F = vector_tails(dim, depth=depth, window=window)
        element = st.tuples(*[st.integers(0, 4)] * dim)
    elif kind == "scaling":
        L = draw(st.sampled_from([0.25, 0.5, 0.75]))
        F = scaling_tails(depth=depth, window=window, L=L)
        element = st.one_of(st.just(0.0), st.integers(0, 6).map(lambda j: L**j))
    elif kind == "explicit":
        F = explicit_basis(draw(nested_level_sets(depth)))
        element = st.integers(0, 6)
    else:
        # listed levels need not nest, nor be sorted or free of repeats, so a
        # deeper level can satisfy fewer checked levels than a shallower one
        listed = draw(st.lists(st.lists(st.integers(0, 12)), min_size=depth + 1, max_size=depth + 1))
        F = dataclasses.replace(
            explicit_basis(draw(nested_level_sets(depth))),
            enumerate_level=lambda j, bound: tuple(b for b in listed[j] if b <= bound),
        )
        element = st.integers(0, 6)
    s_samples = draw(st.none() | st.lists(element, max_size=4).map(tuple))
    max_level = draw(st.none() | st.integers(-1, depth + 1))
    bound = draw(st.integers(0, 40))
    return F, {"s_samples": s_samples, "max_level": max_level, "enumeration_bound": bound}


@settings(max_examples=200, deadline=None)
@given(hypothesis_inputs())
def test_hypotheses_table_pass_matches_reference(inputs):
    F, kwargs = inputs
    assert_hypotheses_match_reference(F, **kwargs)


def test_hypotheses_keep_levels_satisfied_by_a_shallower_filter_level():
    # the listed filter levels do not nest: 0 + 2 lies in checked levels 0
    # and 1, while 0 + 1 and 0 + 0 lie in level 0 only, so the deeper
    # filter levels satisfy less and must not undo what level 0 satisfied
    listed = [(2,), (1,), (0,)]
    F = dataclasses.replace(
        explicit_basis([frozenset({0, 1, 2, 3}), frozenset({2, 3}), frozenset({3})]),
        enumerate_level=lambda j, bound: listed[j],
    )
    rep = check_hypotheses(basis_with(F, s_samples=(0,)), max_level=2)
    assert rep.check("left_translate_into").witness == "s=0 level=2 blocker=2"
    assert_hypotheses_match_reference(F, s_samples=(0,), max_level=2)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_hypotheses_match_reference_on_builtins(name):
    F = get_scenario(name).filter_basis
    assert_hypotheses_match_reference(F)
    assert_hypotheses_match_reference(F, max_level=max(0, F.depth - 6))


def test_hypotheses_match_reference_on_grid_scale_config():
    F = load_system('[scenario]\nkind = "decay_grid"\ncount = 201\n').filter_basis
    assert_hypotheses_match_reference(F, max_level=max(0, F.depth - 6))


def test_hypotheses_match_reference_on_explicit_config_filter():
    sc = load_system(
        '[scenario]\nkind = "custom"\n'
        '[space]\nkind = "line_grid"\ncount = 21\n'
        '[family]\nkind = "metric_chain"\neps0 = 2.0\ndepth = 2\n'
        '[action]\nkind = "halving_decay"\n'
        '[filter]\nkind = "explicit"\nlevels = [[0, 1, 2, 3, 5], [2, 3, 5], [3, 5], [5]]\n'
    )
    F = sc.filter_basis
    assert F.enumerate_level is None
    for max_level in (None, 0, 1, 3):
        assert_hypotheses_match_reference(F, max_level=max_level, s_samples=(0, 1, 2, 3))


def test_hypotheses_call_contains_once_per_tested_element_and_level():
    base = integer_tails(nat_add(), depth=10)
    calls = collections.Counter()

    def counting(el, k):
        calls[el, k] += 1
        return base.contains(el, k)

    F = dataclasses.replace(base, contains=counting)
    calls.clear()  # the basis checks its samples when built
    rep = check_hypotheses(F, max_level=default_level(F))
    assert rep == reference_check_hypotheses(base)
    assert calls and max(calls.values()) == 1
    assert {k for _, k in calls} == set(range(F.depth - 4 + 1))


def test_hypotheses_scan_the_grid_scale_basis_from_its_deepest_level():
    # the 201-point grid basis nests, so its deepest level alone satisfies
    # every checked level of each passing row; a scan from level 0 reads
    # level 0 in full for every s and then the levels below it
    base = load_system('[scenario]\nkind = "decay_grid"\ncount = 201\n').filter_basis
    sem = base.semigroup
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    class CountedLevel(tuple):
        def __iter__(self):
            for b in tuple.__iter__(self):
                calls["reads"] += 1
                yield b

    def listing(j, bound):
        calls["enumerate", j] += 1
        return CountedLevel(base.enumerate_level(j, bound))

    F = dataclasses.replace(
        base,
        semigroup=dataclasses.replace(
            sem,
            compose=counted("compose", sem.compose),
            divide_left=counted("divide", sem.divide_left),
            divide_right=counted("divide", sem.divide_right),
        ),
        enumerate_level=listing,
    )
    kwargs = {"max_level": max(0, F.depth - 6)}
    calls.clear()  # the basis checks its samples when built
    rep = check_hypotheses(F, **kwargs)
    assert rep == reference_check_hypotheses(base, **kwargs)
    assert rep.all_passed
    assert max(n for key, n in calls.items() if key[0] == "enumerate") == 1
    rows, s_count = len(rep.checks), len(sem.sample(4))
    deepest = len(base.enumerate_level(F.depth, 1000))
    assert calls["compose"] + calls["divide"] <= rows * 2 * s_count * deepest
    assert calls["reads"] <= rows * s_count * deepest


def test_taxonomy_decay(decay, grid, fam, tails):
    cap = default_cap(grid.n)
    testsets = {
        "whole": grid.full_mask,
        "seed": pick(grid, 100),
    }
    D = reference_point_balls(grid, 0.15)[0]
    rep = check_dissipativity(
        decay, tails, fam, testsets, cap=cap, points_sample=grid.full_mask, absorb_candidate=D
    )
    for name in (
        "eventually_bounded",
        "bounded_dissipative",
        "point_dissipative",
        "asymptotically_compact",
        "limit_compact",
    ):
        assert rep.passed(name), rep.check(name)


def test_taxonomy_identity(identity_action, grid, fam, tails):
    cap = default_cap(grid.n)
    rep = check_dissipativity(
        identity_action,
        tails,
        fam,
        {"whole": grid.full_mask},
        cap=cap,
        points_sample=grid.full_mask,
        absorb_candidate=None,
    )
    # the whole space is bounded under this family, so orbits stay bounded
    assert rep.passed("eventually_bounded")
    # but nothing is pulled into a small absorbing set
    assert not rep.passed("point_dissipative") or is_bounded(grid.full_mask, fam)


def test_eventual_compactness_witness(decay, grid, fam):
    cap = default_cap(grid.n)
    out = verify_eventual_compactness(
        decay, 7, {"whole": grid.full_mask}, fam, cap
    )
    assert out.passed
    # identity element is no witness once the family resolves single points
    sharp = metric_chain_family(grid, 2.0, 5)
    bad = verify_eventual_compactness(
        decay, 0, {"whole": grid.full_mask}, sharp, cap
    )
    assert not bad.passed


def test_divergent_sequence_scaling_powers():
    # the scaling basis yields contraction powers with growing exponent blocks
    F = scaling_tails(depth=5, window=2)
    seq = divergent_sequence(F)
    for k, el in seq:
        assert F.contains(el, k)
        assert abs(el) <= 0.5 ** max(k, 1) + 1e-12
    # block floors shrink geometrically
    first_per_level = {}
    for k, el in seq:
        first_per_level.setdefault(k, el)
    vals = [first_per_level[k] for k in sorted(first_per_level)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def reference_prolongational_limit(x, F, action, family):
    """The former stand-alone body of `prolongational_limit`: its own orbit
    loop, deepest pairs built inside the level loop, then the witness scan,
    every image taken point by point with `apply_fn`."""
    space = action.space
    finest = family.depth
    acc = space.full_mask
    deepest_pairs = []
    for k in F.levels():
        i = min(k, finest)
        pmask = family.coverings[i].point_star[x]
        block = 0
        for el in F.sampler(k):
            for src in iter_bits(pmask):
                block |= 1 << action.apply_fn(el, src)
        acc &= family.closure_mask(block)
        if k == F.depth:
            deepest_pairs = [
                (el, src)
                for el in F.sampler(k)
                for src in iter_bits(pmask)
            ]
    fine = family.coverings[-1]
    witnesses = {}
    for i in iter_bits(acc):
        star = fine.point_star[i]
        for el, src in deepest_pairs:
            img = action.apply_fn(el, src)
            if (star >> img) & 1:
                witnesses[i] = (el, src)
                break
    return acc, witnesses


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_prolongational_limit_matches_reference(name):
    sc = get_scenario(name)
    for x in iter_bits(sc.points_sample):
        rep = prolongational_limit(x, sc.filter_basis, sc.action, sc.family)
        mask, witnesses = reference_prolongational_limit(
            x, sc.filter_basis, sc.action, sc.family
        )
        assert rep.mask == mask, x
        assert rep.witnesses == witnesses, x


@pytest.mark.parametrize("depth", range(5))
def test_prolongational_limit_matches_reference_on_shallow_filters(decay, grid, fam, depth):
    # the built-in filters run deeper than their families, so every level past
    # the finest covering seeds the same star; shallow filters end on coarser ones
    F = integer_tails(nat_add(), depth=depth, window=8)
    for x in range(0, grid.n, 5):
        rep = prolongational_limit(x, F, decay, fam)
        mask, witnesses = reference_prolongational_limit(x, F, decay, fam)
        assert rep.mask == mask, x
        assert rep.witnesses == witnesses, x


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_orbit_cache_keeps_filter_bases_apart(decay, grid, order):
    # a fresh action per order, so that each order starts from an empty cache;
    # the two bases differ only in the elements their samplers return
    action = Action(semigroup=nat_add(), space=grid, apply_fn=decay.apply_fn)
    bases = [integer_tails(nat_add(), depth=3, window=w) for w in (2, 6)]
    Y = pick(grid, 7, 50, 100)
    want = [
        [
            grid.mask_of(action.apply_fn(el, i) for el in F.sampler(k) for i in iter_bits(Y))
            for k in F.levels()
        ]
        for F in bases
    ]
    assert want[0] != want[1]
    for j in [j for j in order for _ in range(2)]:
        F = bases[j]
        assert [orbit_mask(k, Y, action, F) for k in F.levels()] == want[j]
    # the per-point rows are keyed by the basis too
    rows = [[orbit_rows(k, action, F) for k in F.levels()] for F in bases]
    for F, per_level in zip(bases, rows):
        for k, row in zip(F.levels(), per_level):
            assert row == tuple(reference_orbit_mask(k, 1 << i, action, F) for i in range(grid.n))
    assert rows[0] != rows[1]


class _HashCountingSampler:
    """A sampler that counts how often it is hashed."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.hashes = 0

    def __call__(self, k):
        return self.sampler(k)

    def __hash__(self):
        self.hashes += 1
        return object.__hash__(self)


def test_filter_basis_hashes_its_fields_once(decay, grid):
    # every orbit_rows and orbit_mask lookup keys its memo by the basis, and
    # only the first one hashes the basis's fields
    sampler = _HashCountingSampler(integer_tails(nat_add(), depth=3).sampler)
    F = dataclasses.replace(integer_tails(nat_add(), depth=3), sampler=sampler)
    assert sampler.hashes == 0
    action = Action(semigroup=nat_add(), space=grid, apply_fn=decay.apply_fn)
    for _ in range(3):
        for k in F.levels():
            assert orbit_rows(k, action, F) == orbit_rows(k, action, F)
            for Y in (pick(grid, 7, 50), pick(grid, 100), grid.full_mask):
                assert orbit_mask(k, Y, action, F) == reference_orbit_mask(k, Y, action, F)
    assert sampler.hashes == 1
    # a basis with the same fields is equal and hashes equal: the memos are
    # shared between them, as with the field hash of a frozen dataclass
    twin = dataclasses.replace(F)
    assert twin == F and hash(twin) == hash(F) and twin is not F
    assert sampler.hashes == 2


@st.composite
def self_map_orbit_queries(draw):
    # a random self-map f of n points acts through nat_add as t -> f^t
    n = draw(st.integers(1, 8))
    f = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    bases = [
        integer_tails(nat_add(), depth=draw(st.integers(0, 4)), window=draw(st.integers(1, 4)),
                      start=draw(st.integers(0, 2)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    queries = draw(st.lists(
        st.tuples(st.integers(0, len(bases) - 1), st.integers(0, 4), st.integers(0, (1 << n) - 1)),
        min_size=1, max_size=12,
    ))
    return n, f, bases, [(bases[b], min(k, bases[b].depth), Y) for b, k, Y in queries]


@given(self_map_orbit_queries())
@settings(max_examples=150, deadline=None)
def test_orbit_rows_match_point_by_point_images(case):
    n, f, bases, queries = case
    space = line_grid(0.0, 1.0, n)

    def apply_fn(t, i):
        for _ in range(t):
            i = f[i]
        return i

    def rows_ok(action, F, k):
        want = tuple(reference_orbit_mask(k, 1 << i, action, F) for i in range(n))
        return orbit_rows(k, action, F) == want

    # one fresh action per order of the two memos; on each, the queries run
    # cold, warm, then reversed on the warm memos
    for rows_first in (False, True):
        action = Action(semigroup=nat_add(), space=space, apply_fn=apply_fn)
        for F, k, Y in [*queries, *queries, *reversed(queries)]:
            if rows_first:
                assert rows_ok(action, F, k)
            assert orbit_mask(k, Y, action, F) == reference_orbit_mask(k, Y, action, F)
            assert rows_ok(action, F, k)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_image_mask_cache_keeps_sets_apart(decay, grid, order):
    # a fresh action per order, so that each order starts from an empty cache
    action = Action(semigroup=nat_add(), space=grid, apply_fn=decay.apply_fn)
    masks = [pick(grid, 7, 50, 100), pick(grid, 3, 64)]
    for el in (1, 3):
        for m in [masks[j] for j in order for _ in range(2)]:
            want = grid.mask_of(action.apply_fn(el, i) for i in iter_bits(m))
            assert action.image_mask(el, m) == want


def _check_scans(family, action, F, Y, Z, x):
    """`attracts` of Z by Y, and the limit sets of Z and of the point x,
    equal their full scans: every level, every covering, and each witness
    found by a scan of its own. Witnesses are compared in order, since the
    reports list them in index order."""
    rep, want = attracts(Y, Z, F, action, family), reference_attracts(Y, Z, F, action, family)
    assert rep.levels == want.levels, (Y, Z)
    assert list(rep.failures.items()) == list(want.failures.items()), (Y, Z)
    stars_of_x = [family.coverings[min(k, family.depth)].point_star[x] for k in F.levels()]
    for seeds, lim in (
        ([Z] * (F.depth + 1), omega_limit(Z, F, action, family)),
        (stars_of_x, prolongational_limit(x, F, action, family)),
    ):
        mask = functools.reduce(operator.and_, (
            reference_closure_mask(family, reference_orbit_mask(k, seeds[k], action, F))
            for k in F.levels()
        ))
        assert lim.mask == mask, (Z, x)
        witnesses = reference_limit_witnesses(mask, seeds[-1], F, action, family)
        assert list(lim.witnesses.items()) == list(witnesses.items()), (Z, x)


@st.composite
def random_systems(draw):
    """A family of random coverings, a random self-map f of its points
    acting through nat_add as t -> f^t, and a tail basis of depth 0-4."""
    family = draw(random_cover_families())
    n = family.space.n
    f = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))

    def apply_fn(t, i):
        for _ in range(t):
            i = f[i]
        return i

    action = Action(semigroup=nat_add(), space=family.space, apply_fn=apply_fn)
    F = integer_tails(
        nat_add(), depth=draw(st.integers(0, 4)), window=draw(st.integers(1, 4)),
        start=draw(st.integers(0, 2)),
    )
    return family, action, F


@given(random_systems(), st.data())
@settings(max_examples=300, deadline=None)
def test_scans_match_the_full_scans_on_random_systems(system, data):
    family, action, F = system
    sets = st.integers(1, family.space.full_mask)
    Y, Z = data.draw(sets), data.draw(sets)
    _check_scans(family, action, F, Y, Z, data.draw(st.integers(0, family.space.n - 1)))


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_scans_match_the_full_scans_on_scenarios(name):
    sc = get_scenario(name)
    F, action, family = sc.filter_basis, sc.action, sc.family
    attractors = [sc.attractor_points(), *sc.testsets.values()]
    points = list(iter_bits(sc.points_sample))
    for j, (Y, Z) in enumerate(itertools.product(attractors, sc.testsets.values())):
        _check_scans(family, action, F, Y, Z, points[j % len(points)])


def test_scans_match_the_full_scans_on_a_saturated_chain():
    # on 9 points 0.125 apart every chain level from radius 0.125 on is the
    # singletons, so the deep levels are equal coverings
    grid9 = line_grid(0.0, 1.0, 9)
    family = metric_chain_family(grid9, 2.0, 6)
    assert len({c.members for c in family.coverings[2:]}) == 1
    halving = Action(semigroup=nat_add(), space=grid9, apply_fn=lambda t, i: i >> t)
    F = integer_tails(nat_add(), depth=5, window=3)
    sets = [1, 1 << 8, 0b110, 0b1000_0001, grid9.full_mask]
    for j, (Y, Z) in enumerate(itertools.product(sets, repeat=2)):
        _check_scans(family, halving, F, Y, Z, j % grid9.n)


def attractor_system(name, seed):
    """The built-in scenario with the test sets of `attractor --seed seed`:
    its own, and the random bounded ones that the command adds."""
    sc = get_scenario(name)
    testsets = dict(sc.testsets)
    rng = random.Random(seed)
    testsets.update(sc.random_bounded_testsets(rng, count=min(RunConfig.budget, 50)))
    return dataclasses.replace(sc, testsets=testsets)


def limit_compact(testsets, F, action, family, cap):
    rep = check_dissipativity(
        action, F, family, testsets, cap=cap, points_sample=family.space.full_mask,
        absorb_candidate=None,
    )
    return rep.check("limit_compact")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_limit_compact_matches_the_definition_on_scenarios(name, seed):
    sc = attractor_system(name, seed)
    args = (sc.testsets, sc.filter_basis, sc.action, sc.family, sc.declared.cap)
    assert limit_compact(*args) == reference_limit_compact(*args)


@st.composite
def loose_samples(draw, F):
    """F with a sample per level of 1-3 elements of its tail, drawn apart,
    so that the level samples, and the level orbits, need not nest."""
    floor = [min(F.sampler(k)) for k in F.levels()]
    samples = [
        tuple(sorted({floor[k] + d for d in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))}))
        for k in F.levels()
    ]
    return dataclasses.replace(F, sampler=lambda k: samples[k])


def _check_limit_compact(system, data, loose):
    family, action, F = system
    if loose:
        F = data.draw(loose_samples(F))
    names = data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    testsets = {name: data.draw(st.integers(1, family.space.full_mask)) for name in names}
    args = (testsets, F, action, family, data.draw(st.integers(1, family.space.n)))
    assert limit_compact(*args) == reference_limit_compact(*args)


@given(random_systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_limit_compact_matches_the_definition_on_random_systems(system, data):
    _check_limit_compact(system, data, loose=False)


@given(random_systems(), st.data())
@settings(max_examples=300, deadline=None)
def test_limit_compact_matches_the_definition_on_loose_random_systems(system, data):
    # nested samples give nested orbits, whose deepest member measure holds
    # every other, so only loose samples can tell apart scans that read
    # different levels
    _check_limit_compact(system, data, loose=True)


@pytest.mark.parametrize("Y, f", [(0b11, (2, 3, 2, 3)), (0b1100, (0, 1, 0, 1))], ids=["level-0", "level-1"])
def test_limit_compact_keeps_a_covering_that_one_level_alone_fits(Y, f):
    # one covering, members {0, 1}, {2} and {3}, at cap 1: the pair {0, 1}
    # fits it and {2, 3} does not. The samples (0,) and (1,) give the orbits
    # Y and f(Y), one of each pair, so one level alone keeps the covering
    space = line_grid(0.0, 1.0, 4)
    family = AdmissibleFamily(space=space, coverings=(make_covering_masks(space, [0b11, 0b100, 0b1000]),))
    # f is idempotent, so t -> f^t is an action of nat_add
    action = Action(semigroup=nat_add(), space=space, apply_fn=lambda t, i: f[i] if t else i)
    F = dataclasses.replace(integer_tails(nat_add(), depth=1), sampler=lambda k: (k,))
    args = ({"pair": Y}, F, action, family, 1)
    assert limit_compact(*args) == reference_limit_compact(*args) == CheckResult("limit_compact", True, None)


def test_limit_compact_reads_the_deepest_orbit_first(monkeypatch):
    # the member-measure cover searches of the seed-1 taxonomy (the row's
    # only cover searches): a scan from level 0 makes 64, 60, 122 and 35
    real, calls = compactness.coverable_within, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(compactness, "coverable_within", counted)
    searches = {}
    for name in sorted(BUILTIN_SCENARIOS):
        sc = attractor_system(name, 1)
        calls.clear()
        row = limit_compact(sc.testsets, sc.filter_basis, sc.action, sc.family, sc.declared.cap)
        assert row.passed == (name != "exp_decay")
        searches[name] = len(calls)
    # every covering keeps the deepest orbits of composition and decay_grid;
    # exp_decay fails the row, so it reads every level either way
    assert searches["composition"] == searches["decay_grid"] == 1
    assert searches["iterated_contractions"] <= 64
    assert searches["exp_decay"] <= 122
