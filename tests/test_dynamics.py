import collections
import dataclasses
import functools
import itertools
import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdyn import compactness, scenarios
from coverdyn.attractor import construct_candidate, verify_global
from coverdyn.cli import DEFAULTS
from coverdyn.compactness import (
    cantor_kuratowski_check,
    default_cap,
    is_bounded,
    is_cauchy,
    is_totally_bounded,
    star_measure,
)
from coverdyn.covering import (
    AdmissibleFamily,
    CheckResult,
    CoveringError,
    SpaceMismatch,
    make_covering_masks,
    metric_chain_family,
)
from coverdyn.dynamics import (
    ENUMERATION_BOUND,
    HYPOTHESIS_NAMES,
    TAIL_WINDOW,
    Action,
    FilterBasis,
    NestingViolation,
    absorbs,
    attracts,
    check_dissipativity,
    check_hypotheses,
    integer_tails,
    limit_witnesses,
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
from coverdyn.funcspace import as_value
from coverdyn.proximity import (
    CoverCollection,
    coarsen,
    converges_to_zero,
    semi_prox,
    sets_equal_at_resolution,
    subset_at_resolution,
)
from coverdyn.scenarios import BUILTIN_SCENARIOS, SchemaError, get_scenario, load_system
from coverdyn.space import (
    CoverdynError,
    DuplicatePoint,
    EmptyInput,
    build_finite_topology,
    build_metric_space,
    enumerate_topologies,
    iter_bits,
    line_grid,
)
from reference import (
    divergent_sequence,
    prox_form_attracts,
    reference_absorbing_rows,
    reference_absorption_level,
    reference_asymptotically_compact,
    reference_attracts,
    reference_check_associativity,
    reference_check_hypotheses,
    reference_closure_mask,
    reference_eventually_bounded,
    reference_limit_compact,
    reference_limit_witnesses,
    reference_orbit_mask,
    reference_point_balls,
    reference_prolongational_seed,
    reference_tail_cluster,
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
    return Action(space=grid, apply_fn=lambda t, i: i >> t)


@pytest.fixture(scope="module")
def identity_action(grid):
    return Action(space=grid, apply_fn=lambda t, i: i)


def pick(grid, *idx):
    return grid.mask_of(idx)


def test_action_associativity(decay):
    assert decay.check_associativity(nat_add().compose, range(6)) is None


def test_associativity_reports_first_violating_triple(grid):
    # element 1 sends every point to 0, element 2 is the identity, so 1 + 1
    # disagrees with 1 applied twice first at point 1
    action = Action(space=grid, apply_fn=lambda t, i: 0 if t == 1 else i)
    assert action.check_associativity(nat_add().compose, (0, 1)) == (1, 1, 1)
    assert reference_check_associativity(action, nat_add().compose, (0, 1)) == (1, 1, 1)


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
    action = Action(space=line_grid(0.0, 1.0, n), apply_fn=apply_fn)
    got = action.check_associativity(nat_add().compose, elements)
    assert got == reference_check_associativity(action, nat_add().compose, elements)
    if associative:
        assert got is None


@pytest.mark.parametrize("image", [101, -1, True])
def test_image_row_rejects_a_value_that_is_no_point_index(grid, image):
    # 101 is one past the last point of the grid; a bool is an int subclass
    action = Action(space=grid, apply_fn=lambda t, i: image if i == 7 else i)
    with pytest.raises(CoverdynError, match=f"element 3 sends point 7 to {image!r}"):
        action.image_indices(3)
    with pytest.raises(CoverdynError):
        orbit_mask(1, action, integer_tails(nat_add(), depth=0, window=4))


def test_semigroup_associativity_samples():
    for sem in (nat_add(), nat_mul(), vector_add(2)):
        els = sem.samples
        for a, b, c in itertools.product(els, repeat=3):
            assert sem.compose(sem.compose(a, b), c) == sem.compose(a, sem.compose(b, c))


def truncated(F, k):
    """F cut at level k: its deepest orbit is F's level-k orbit, as the
    `--max-level` option builds it."""
    return dataclasses.replace(F, depth=k)


def test_orbit_identity_level_contains_y(identity_action, grid, tails):
    Y = pick(grid, 3, 9)
    assert Y & ~orbit_mask(Y, identity_action, truncated(tails, 0)) == 0


def test_orbit_decay_values(decay, grid, tails):
    got = orbit_mask(pick(grid, 100), decay, truncated(tails, 4))
    assert got == pick(grid, *{100 >> t for t in range(4, 12)})
    # the deepest level starts at 10, and 100 >> 7 is 0
    assert orbit_mask(pick(grid, 100), decay, tails) == pick(grid, 0)


def test_orbit_invariant_set(decay, grid, tails):
    zero = pick(grid, 0)
    for k in tails.levels():
        assert orbit_mask(zero, decay, truncated(tails, k)) == zero


EMPTY_INPUTS = {
    "omega_limit": (lambda F, act, fam: omega_limit(0, F, act, fam), "limit set of the empty set"),
    "attracts-empty-y": (lambda F, act, fam: attracts(0, 1, F, act, fam), "attraction needs nonempty sets"),
    "attracts-empty-z": (lambda F, act, fam: attracts(1, 0, F, act, fam), "attraction needs nonempty sets"),
    "absorbs-empty-y": (lambda F, act, fam: absorbs(0, 1, F, act), "absorption needs nonempty sets"),
    "absorbs-empty-z": (lambda F, act, fam: absorbs(1, 0, F, act), "absorption needs nonempty sets"),
    "check_dissipativity": (
        lambda F, act, fam: taxonomy({}, F, act, fam, 1), "the taxonomy needs at least one test set"
    ),
    "construct_candidate": (
        lambda F, act, fam: construct_candidate({}, F, act, fam), "candidate construction needs test sets"
    ),
}


@pytest.mark.parametrize("name", sorted(EMPTY_INPUTS))
def test_public_entries_reject_empty_input(name, decay, fam, tails):
    call, message = EMPTY_INPUTS[name]
    with pytest.raises(EmptyInput, match=message):
        call(tails, decay, fam)


def _not_associative(fam):
    # element 1 sends every point to 0, so 1 + 1 disagrees with 1 applied
    # twice first at point 1; no built-in action fails this check
    sc = get_scenario("decay_grid")
    bad = dataclasses.replace(sc, action=Action(space=sc.space, apply_fn=lambda t, i: 0 if t == 1 else i))
    return scenarios._validate(bad, 0.0, 1.0)


def _not_associative_at_the_fourth_probe(fam):
    # composition's level-0 probes are 2^-1 .. 2^-4; the action below fixes
    # every point under 2^-8, and only the fourth probe with itself composes
    # to 2^-8, so the first three probes alone never see the fault
    sc = get_scenario("composition")
    assert sc.filter_basis.probes() == (0.5, 0.25, 0.125, 0.0625)
    good = sc.action.apply_fn
    bad = dataclasses.replace(sc, action=Action(
        space=sc.space, apply_fn=lambda c, i: i if c == 0.0625**2 else good(c, i)
    ))
    assert bad.action.check_associativity(bad.filter_basis.semigroup.compose, (0.5, 0.25, 0.125)) is None
    return scenarios._validate(bad, 0.0, 1.0)


# the guards of the library entries that no config reaches, on the 101-point
# grid family: the call, the exception it raises, and its message
BAD_INPUTS = {
    "is_totally_bounded-empty": (
        lambda fam: is_totally_bounded(0, fam), EmptyInput, "total boundedness of the empty set"
    ),
    "is_cauchy-empty": (lambda fam: is_cauchy([], fam), EmptyInput, "a Cauchy check needs a nonempty sequence"),
    "cantor_kuratowski-no-chain": (
        lambda fam: cantor_kuratowski_check([], fam, 1), EmptyInput, "the chain must be nonempty"
    ),
    "cantor_kuratowski-empty-element": (
        lambda fam: cantor_kuratowski_check([fam.space.full_mask, 0], fam, 1), EmptyInput, "chain element 1 is empty"
    ),
    "coarsen-zero-steps": (
        lambda fam: coarsen(CoverCollection(fam, 1), 0), ValueError, "n must be a positive integer"
    ),
    "converges_to_zero-empty": (
        lambda fam: converges_to_zero([]), EmptyInput, "convergence needs at least one element"
    ),
    "closure_mask-empty": (lambda fam: fam.closure_mask(0), EmptyInput, "closure of the empty set"),
    "family-no-covering": (
        lambda fam: AdmissibleFamily(space=fam.space, coverings=()), EmptyInput, "a family needs at least one covering"
    ),
    "family-other-space": (
        lambda fam: AdmissibleFamily(space=fam.space, coverings=(fam.coverings[0], *metric_chain_family(line_grid(0.0, 1.0, 3), 2.0, 0).coverings)),
        SpaceMismatch,
        "family coverings must share one space",
    ),
    "covering-empty-member": (
        lambda fam: make_covering_masks(fam.space, [0, fam.space.full_mask]), EmptyInput, "members must be nonempty"
    ),
    "covering-misses-a-point": (
        lambda fam: make_covering_masks(fam.space, [fam.space.full_mask >> 1]),
        CoveringError,
        re.escape("members do not cover the space; missing ['(1)']"),
    ),
    "covering-member-not-open": (
        lambda fam: make_covering_masks(build_finite_topology(["a", "b"], [[], ["a"], ["a", "b"]]), [0b10, 0b11]),
        CoveringError,
        re.escape("member ['b'] is not open"),
    ),
    "check-unknown-name": (lambda fam: fam.admissibility_report.check("bogus"), KeyError, "bogus"),
    "index_of-unknown-id": (lambda fam: fam.space.index_of("bogus"), KeyError, "bogus"),
    "metric-space-ragged-rows": (
        lambda fam: build_metric_space([[0.0], [1.0, 2.0]]), ValueError, "all coordinate vectors must have the same length"
    ),
    "topology-no-points": (
        lambda fam: build_finite_topology([], [[]]), EmptyInput, "a space needs at least one point"
    ),
    "topology-duplicate-ids": (
        lambda fam: build_finite_topology(["a", "a"], [[], ["a"]]), DuplicatePoint, "duplicate point ids"
    ),
    "topology-unknown-point": (
        lambda fam: build_finite_topology(["a"], [[], ["a"], ["b"]]), ValueError, "open set mentions unknown point 'b'"
    ),
    "enumerate_topologies-5-points": (
        lambda fam: enumerate_topologies(5), ValueError, "topology enumeration is intended for tiny spaces"
    ),
    "as_value-dimension": (
        lambda fam: as_value((1.0, 2.0), 1), ValueError, re.escape("value (1.0, 2.0) has dimension 2, expected 1")
    ),
    "scenario-not-associative": (
        _not_associative, SchemaError, re.escape("action is not associative at s=1, t=1, point (0.01)")
    ),
    "scenario-not-associative-at-the-fourth-probe": (
        _not_associative_at_the_fourth_probe, SchemaError, re.escape("action is not associative at s=0.0625, t=0.0625, point id.e0")
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_library_entries_reject_bad_input(name, fam):
    call, error, message = BAD_INPUTS[name]
    with pytest.raises(error, match=message):
        call(fam)


def test_divergent_sequence_blocks(tails):
    seq = divergent_sequence(tails)
    # block k is drawn from level k: membership holds at its own level
    for k, el in seq:
        assert tails.contains(el, k)
    ks = [k for k, _ in seq]
    assert ks == sorted(ks)


@st.composite
def level_samples(draw):
    """An integer tail basis, or None for an explicit basis, one sample per
    level and maybe one listing per level. Each sample is nonempty and
    inside its level: 1-3 elements of the level's tail, or of 0..12 for an
    explicit basis, whose levels are these sets. A listing is 0-4 elements
    of 0..12, repeats allowed, in any order. Nested samples add each deeper
    sample to the one above it, and nested listings shuffle each deeper
    listing into the one above it; loose ones are drawn apart, and may nest
    or not."""
    depth, nested = draw(st.integers(0, 4)), draw(st.booleans())
    F, floor, offsets = None, [0] * (depth + 1), st.lists(st.integers(0, 12), min_size=1, max_size=3)
    if draw(st.booleans()):
        F = integer_tails(nat_add(), depth=depth, window=draw(st.integers(1, 4)), start=draw(st.integers(0, 2)))
        floor = [min(F.level_samples[k]) for k in F.levels()]
        offsets = st.lists(st.integers(0, 3), min_size=1, max_size=3)
    samples = [frozenset()] * (depth + 2)
    for k in reversed(range(depth + 1)):
        drawn = frozenset(floor[k] + d for d in draw(offsets))
        samples[k] = drawn | samples[k + 1] if nested else drawn
    listings = None
    if draw(st.booleans()):
        listings, nested = [()] * (depth + 2), draw(st.booleans())
        for k in reversed(range(depth + 1)):
            drawn = tuple(draw(st.lists(st.integers(0, 12), max_size=4)))
            listings[k] = tuple(draw(st.permutations(drawn + listings[k + 1]))) if nested else drawn
        listings = listings[:-1]
    return F, samples[:-1], listings


def first_loose_level(levels):
    """The first level that is not a subset of the one above it, or None."""
    return next((k for k in range(1, len(levels)) if not set(levels[k]) <= set(levels[k - 1])), None)


@given(level_samples())
@settings(max_examples=300, deadline=None)
def test_filter_basis_rejects_exactly_the_samples_that_do_not_nest(case):
    # listings are certified too, each level's after its sample
    F, samples, listings = case
    listing = None if listings is None else tuple(listings)

    def build():
        if F is None:
            return explicit_basis(samples, listing)
        return dataclasses.replace(
            F,
            level_samples=tuple(tuple(sorted(s)) for s in samples),
            level_listings=listing or F.level_listings,
        )

    loose = first_loose_level(samples)
    unlisted = None if listings is None else first_loose_level(listings)
    if loose is not None and (unlisted is None or loose <= unlisted):
        with pytest.raises(NestingViolation, match=f"of level {loose} is not sampled at level {loose - 1}"):
            build()
    elif unlisted is not None:
        with pytest.raises(NestingViolation, match=f"of level {unlisted} is not listed at level {unlisted - 1}"):
            build()
    else:
        assert build().depth == len(samples) - 1


def test_filter_nesting_violation():
    sem = nat_add()
    with pytest.raises(NestingViolation):
        FilterBasis(
            semigroup=sem,
            depth=2,
            contains=lambda el, k: el >= k,
            level_samples=((0,),) * 3,  # level 1 sample escapes level 1
        )


@pytest.mark.parametrize("field", ["level_samples", "level_listings"])
@pytest.mark.parametrize("held", ["levels-in-a-list", "level-2-a-list"])
def test_filter_basis_rejects_levels_that_could_change_after_their_check(field, held):
    # a list could change after the basis certified it, so no reader could
    # trust that it indexes what was certified
    base = integer_tails(nat_add(), depth=3)
    stored = getattr(base, field)
    if held == "levels-in-a-list":
        levels, first = list(stored), 0
    else:
        levels, first = stored[:2] + (list(stored[2]),) + stored[3:], 2
    what = field.removeprefix("level_").removesuffix("s")
    with pytest.raises(TypeError, match=f"the {what} of level {first} is not a tuple or a range in a tuple"):
        dataclasses.replace(base, **{field: levels})


def test_a_cut_shares_the_stored_levels_and_certifies_levels_0_to_k_again():
    # level 2 lies past the cut at depth 1, so the basis holds it uncertified;
    # a cut certifies the levels it reads, and a depth past the stored levels fails
    checked = collections.Counter()

    def contains(el, k):
        checked[k] += 1
        return True

    F = FilterBasis(semigroup=nat_add(), depth=1, contains=contains, level_samples=((0, 1), (1,), (0,)))
    for k in (0, 1):
        checked.clear()
        G = dataclasses.replace(F, depth=k)
        assert G.level_samples is F.level_samples
        assert set(checked) == set(G.levels())
    with pytest.raises(NestingViolation, match="sample 0 of level 2 is not sampled at level 1"):
        dataclasses.replace(F, depth=2)
    with pytest.raises(NestingViolation, match="a filter basis needs a level 0; got depth -1"):
        dataclasses.replace(F, depth=-1)
    tails = integer_tails(nat_add(), depth=6)
    cut = dataclasses.replace(tails, depth=2)
    assert cut.level_samples is tails.level_samples and cut.level_listings is tails.level_listings
    with pytest.raises(NestingViolation, match="level 7 has no stored sample"):
        dataclasses.replace(tails, depth=7)
    with pytest.raises(NestingViolation, match="level 7 has no stored listing"):
        dataclasses.replace(tails, depth=7, level_samples=tails.level_samples + (range(7, 10),))


@pytest.mark.parametrize("start", [0, 1])
def test_integer_tails_list_each_level_up_to_the_enumeration_bound(start):
    # a level whose floor passes the bound would list no element, and every
    # translation hypothesis would hold on it vacuously
    F = integer_tails(nat_add(), depth=ENUMERATION_BOUND, start=start)
    assert F.level_listings[-1] == range(ENUMERATION_BOUND, ENUMERATION_BOUND + 1)
    with pytest.raises(NestingViolation, match="level 1001 lists no element up to the enumeration bound 1000"):
        integer_tails(nat_add(), depth=ENUMERATION_BOUND + 1, start=start)


def test_omega_decay_singleton_is_zero(decay, grid, fam, tails):
    mask = omega_limit(pick(grid, 100), tails, decay, fam)
    assert sets_equal_at_resolution(mask, pick(grid, 0), fam)
    # every reported point carries a witness landing in its finest star
    fine = fam.coverings[-1]
    witnesses = limit_witnesses(pick(grid, 100), mask, tails, decay, fam)
    for i, (el, src) in witnesses.items():
        img = decay.apply_fn(el, src)
        assert (fine.point_star[i] >> img) & 1
    assert sum(1 << i for i in witnesses) == mask


def test_omega_invariant_closed_set(identity_action, grid, tails):
    # a closed invariant set is its own limit set (exact, with a resolving family)
    sharp = metric_chain_family(grid, 2.0, 5)
    Y = sharp.closure_mask(pick(grid, 10, 11, 40))
    assert omega_limit(Y, tails, identity_action, sharp) == Y


def test_prolongational_contains_fixed_point(decay, grid, fam, tails):
    assert prolongational_limit(0, tails, decay, fam) & 1


def test_omega_subset_of_prolongational(decay, grid, fam, tails):
    for x in (0, 30, 100):
        om = omega_limit(1 << x, tails, decay, fam)
        jl = prolongational_limit(x, tails, decay, fam)
        assert om & ~jl == 0


def test_compact_vs_open_limit_inclusions(decay, grid, fam, tails):
    # for a finite set K: omega(K) within J(K); for an open star U: J(U) within
    # omega(U), both at resolution
    def prolongational_union(mask):
        out = 0
        for x in iter_bits(mask):
            out |= prolongational_limit(x, tails, decay, fam)
        return out

    K = pick(grid, 20, 60)
    omK = omega_limit(K, tails, decay, fam)
    assert subset_at_resolution(omK, prolongational_union(K), fam)

    U = reference_point_balls(grid, 0.03125)[40]
    omU = omega_limit(U, tails, decay, fam)
    assert subset_at_resolution(prolongational_union(U), omU, fam)


def test_attracts_invariant_subset(decay, grid, fam, tails):
    zero = pick(grid, 0)
    levels, failures = reference_attracts(zero, zero, tails, decay, fam)
    # every covering absorbs at level 0, so none fails
    assert levels == dict.fromkeys(range(fam.size), 0)
    assert attracts(zero, zero, tails, decay, fam).is_zero and failures == {}
    assert prox_form_attracts(zero, zero, tails, decay, fam)


def test_attracts_decay_whole_grid(decay, grid, fam, tails):
    assert attracts(pick(grid, 0), grid.full_mask, tails, decay, fam).is_zero
    assert prox_form_attracts(pick(grid, 0), grid.full_mask, tails, decay, fam)


def test_attracts_failure_witness(identity_action, grid, fam, tails):
    # the identity action never pulls a far point into fine stars of {0}
    held = attracts(pick(grid, 0), pick(grid, 80), tails, identity_action, fam)
    assert not held.is_zero
    assert not prox_form_attracts(pick(grid, 0), pick(grid, 80), tails, identity_action, fam)
    # the witness of the least covering missed, by the reference scan
    _, failures = reference_attracts(pick(grid, 0), pick(grid, 80), tails, identity_action, fam)
    idx, (el, z, img) = min(failures.items())
    assert not (held.mask >> idx) & 1
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
        attracted = attracts(Y, Z, tails, action, fam).is_zero
        assert attracted == prox_form_attracts(Y, Z, tails, action, fam), (Y, Z)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_attracts_matches_prox_form_on_scenarios(name):
    # the declared attractor and each declared test set against the declared
    # test sets and eight seeded random ones
    sc = get_scenario(name)
    F, action, family = sc.filter_basis, sc.action, sc.family
    targets = {**sc.testsets, **sc.random_bounded_testsets(random.Random(0), count=8)}
    attractors = {"attractor": sc.attractor_points(), **sc.testsets}
    for (yname, Y), (zname, Z) in itertools.product(attractors.items(), targets.items()):
        attracted = attracts(Y, Z, F, action, family).is_zero
        assert attracted == prox_form_attracts(Y, Z, F, action, family), (yname, zname)


def test_absorbs_decay_arithmetic(decay, grid, fam, tails):
    # least level pulling {1} inside the open 0.1-ball around 0
    Y = reference_point_balls(grid, 0.1)[0]
    assert reference_absorption_level(Y, pick(grid, 100), tails, decay) == 4
    assert reference_absorption_level(pick(grid, 0), pick(grid, 0), tails, decay) == 0
    assert absorbs(Y, pick(grid, 100), tails, decay) is True
    assert absorbs(pick(grid, 0), pick(grid, 0), tails, decay) is True


def test_absorbs_absent(identity_action, grid, tails):
    assert reference_absorption_level(pick(grid, 0), pick(grid, 80), tails, identity_action) is None
    assert absorbs(pick(grid, 0), pick(grid, 80), tails, identity_action) is False


def basis_with(F, s_samples=None, enumeration_bound=None):
    """F with the inputs `check_hypotheses` reads from it replaced: its
    semigroup samples `s_samples`, and a listed level keeps the elements up
    to `enumeration_bound` alone, for a bound below `ENUMERATION_BOUND`."""
    if s_samples is not None:
        F = dataclasses.replace(
            F, semigroup=dataclasses.replace(F.semigroup, samples=s_samples)
        )
    if enumeration_bound is not None and F.level_listings is not None:
        F = dataclasses.replace(F, level_listings=tuple(
            tuple(b for b in listed if b <= enumeration_bound) for listed in F.level_listings
        ))
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


def explicit_basis(level_sets, level_listings=None):
    """A basis over nat_add built as the config `explicit` filter is, which
    has no listing, or with the listings `level_listings`."""
    return FilterBasis(
        semigroup=nat_add(),
        depth=len(level_sets) - 1,
        contains=lambda el, k: el in level_sets[k],
        level_samples=tuple(tuple(sorted(lv)) for lv in level_sets),
        level_listings=level_listings,
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
        # listed levels nest, as the basis certifies, but need not be sorted,
        # free of repeats, or made of their level's elements
        listed = [()] * (depth + 2)
        for j in reversed(range(depth + 1)):
            drawn = tuple(draw(st.lists(st.integers(0, 12), max_size=4)))
            listed[j] = tuple(draw(st.permutations(drawn + listed[j + 1])))
        F = explicit_basis(draw(nested_level_sets(depth)), tuple(listed[:-1]))
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


class CountedLevels(tuple):
    """Stored levels that count, in `reads`, each level read by index."""

    def __new__(cls, levels, reads):
        self = super().__new__(cls, levels)
        self.reads = reads
        return self

    def __getitem__(self, j):
        self.reads[j] += 1
        return tuple.__getitem__(self, j)


def test_hypotheses_read_the_deepest_listing_and_take_blockers_from_level_0():
    # the listings nest: the deepest, (2,), decides every row, and 0 + 2
    # lies in checked levels 0 and 1 only; each failing row names the first
    # element of level 0's listing outside level 2, and level 1 goes unlisted
    reads = collections.Counter()
    listed = CountedLevels([(1, 0, 2, 3), (2, 3, 2), (2,)], reads)
    F = basis_with(
        explicit_basis([frozenset({0, 1, 2, 3}), frozenset({2, 3}), frozenset({3})], listed),
        s_samples=(0,),
    )
    reads.clear()  # the basis certifies its listings when built
    rep = check_hypotheses(F, max_level=2)
    assert [c.witness for c in rep.checks] == ["s=0 level=2 blocker=1"] * 4
    assert reads == {2: 1, 0: 4}
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
    assert F.level_listings is None
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
    # the 201-point grid basis passes every row, so its deepest listing is
    # the only one read: once per call, and in full once per row and sample
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

    reads = collections.Counter()
    F = dataclasses.replace(
        base,
        semigroup=dataclasses.replace(
            sem,
            compose=counted("compose", sem.compose),
            divide_left=counted("divide", sem.divide_left),
            divide_right=counted("divide", sem.divide_right),
        ),
        level_listings=CountedLevels(map(CountedLevel, base.level_listings), reads),
    )
    kwargs = {"max_level": max(0, F.depth - 6)}
    calls.clear()  # the basis checks its samples when built
    reads.clear()
    rep = check_hypotheses(F, **kwargs)
    assert rep == reference_check_hypotheses(base, **kwargs)
    assert rep.all_passed
    assert reads == {F.depth: 1}
    rows, s_count = len(rep.checks), len(sem.samples)
    deepest = len(base.level_listings[F.depth])
    assert calls["compose"] + calls["divide"] == calls["reads"] == rows * s_count * deepest


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
    every image taken point by point with `apply_fn`. It seeds level k with
    x's star at covering min(k, finest), which on the chains it is run on is
    the AND of x's stars over coverings 0..k."""
    space = action.space
    finest = family.depth
    acc = space.full_mask
    deepest_pairs = []
    for k in F.levels():
        i = min(k, finest)
        pmask = family.coverings[i].point_star[x]
        block = 0
        for el in F.level_samples[k]:
            for src in iter_bits(pmask):
                block |= 1 << action.apply_fn(el, src)
        acc &= family.closure_mask(block)
        if k == F.depth:
            deepest_pairs = [
                (el, src)
                for el in F.level_samples[k]
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
    F, action, family = sc.filter_basis, sc.action, sc.family
    for x in iter_bits(sc.points_sample):
        lim = prolongational_limit(x, F, action, family)
        mask, witnesses = reference_prolongational_limit(x, F, action, family)
        assert lim == mask, x
        seed = reference_prolongational_seed(x, F, family)
        assert limit_witnesses(seed, lim, F, action, family) == witnesses, x


@pytest.mark.parametrize("depth", range(5))
def test_prolongational_limit_matches_reference_on_shallow_filters(decay, grid, fam, depth):
    # the built-in filters run deeper than their families, so every level past
    # the finest covering seeds the same star; shallow filters end on coarser ones
    F = integer_tails(nat_add(), depth=depth, window=8)
    for x in range(0, grid.n, 5):
        lim = prolongational_limit(x, F, decay, fam)
        mask, witnesses = reference_prolongational_limit(x, F, decay, fam)
        assert lim == mask, x
        seed = reference_prolongational_seed(x, F, fam)
        assert limit_witnesses(seed, lim, F, decay, fam) == witnesses, x


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_orbit_cache_keeps_filter_bases_apart(decay, grid, order):
    # a fresh action per order, so that each order starts from an empty cache;
    # the two bases differ only in the elements of their stored samples
    action = Action(space=grid, apply_fn=decay.apply_fn)
    bases = [integer_tails(nat_add(), depth=3, window=w) for w in (2, 6)]
    Y = pick(grid, 7, 50, 100)
    want = [
        [
            grid.mask_of(action.apply_fn(el, i) for el in F.level_samples[k] for i in iter_bits(Y))
            for k in F.levels()
        ]
        for F in bases
    ]
    assert want[0] != want[1]
    for j in [j for j in order for _ in range(2)]:
        F = bases[j]
        assert [orbit_mask(Y, action, truncated(F, k)) for k in F.levels()] == want[j]
    # the per-point rows are keyed by the basis too
    rows = [[orbit_rows(action, truncated(F, k)) for k in F.levels()] for F in bases]
    for F, per_level in zip(bases, rows):
        for k, row in zip(F.levels(), per_level):
            assert row == tuple(reference_orbit_mask(k, 1 << i, action, F) for i in range(grid.n))
    assert rows[0] != rows[1]


class _HashCountingLevels(tuple):
    """Stored levels that count how often they are hashed."""

    hashes = 0

    def __hash__(self):
        self.hashes += 1
        return tuple.__hash__(self)


def test_filter_basis_is_its_own_memo_key(decay, grid):
    # every orbit_rows and orbit_mask lookup keys its memo by the basis, and
    # none of them hashes the basis's fields
    base = integer_tails(nat_add(), depth=3)
    samples = _HashCountingLevels(base.level_samples)
    F = dataclasses.replace(base, level_samples=samples)
    # F itself reads the deepest level
    levels = [truncated(F, k) for k in range(F.depth)] + [F]
    action = Action(space=grid, apply_fn=decay.apply_fn)
    for _ in range(3):
        for k, G in enumerate(levels):
            assert orbit_rows(action, G) == orbit_rows(action, G)
            for Y in (pick(grid, 7, 50), pick(grid, 100), grid.full_mask):
                assert orbit_mask(Y, action, G) == reference_orbit_mask(k, Y, action, F)
    assert samples.hashes == 0
    # a replaced twin with equal fields is a separate key: its lookup fills
    # a memo entry of its own
    twin = dataclasses.replace(F)
    assert twin != F
    rows = action.__dict__["_orbit_rows"]
    assert twin not in rows
    assert orbit_rows(action, twin) == orbit_rows(action, F)
    assert rows[twin] is not rows[F]
    assert samples.hashes == 0


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
    # a query cuts its basis at level k; equal cuts share the memos
    return n, f, [(truncated(bases[b], min(k, bases[b].depth)), Y) for b, k, Y in queries]


@given(self_map_orbit_queries())
@settings(max_examples=150, deadline=None)
def test_orbit_rows_match_point_by_point_images(case):
    n, f, queries = case
    space = line_grid(0.0, 1.0, n)

    def apply_fn(t, i):
        for _ in range(t):
            i = f[i]
        return i

    def rows_ok(action, F):
        want = tuple(reference_orbit_mask(F.depth, 1 << i, action, F) for i in range(n))
        return orbit_rows(action, F) == want

    # one fresh action per order of the two memos; on each, the queries run
    # cold, warm, then reversed on the warm memos
    for rows_first in (False, True):
        action = Action(space=space, apply_fn=apply_fn)
        for F, Y in [*queries, *queries, *reversed(queries)]:
            if rows_first:
                assert rows_ok(action, F)
            assert orbit_mask(Y, action, F) == reference_orbit_mask(F.depth, Y, action, F)
            assert rows_ok(action, F)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_image_mask_cache_keeps_sets_apart(decay, grid, order):
    # a fresh action per order, so that each order starts from an empty cache
    action = Action(space=grid, apply_fn=decay.apply_fn)
    masks = [pick(grid, 7, 50, 100), pick(grid, 3, 64)]
    for el in (1, 3):
        for m in [masks[j] for j in order for _ in range(2)]:
            want = grid.mask_of(action.apply_fn(el, i) for i in iter_bits(m))
            assert action.image_mask(el, m) == want


def _check_scans(family, action, F, Y, Z, x):
    """`attracts` of Z by Y, and the limit sets of Z and of the point x,
    equal their full scans: every level, every covering, and each witness
    found by a scan of its own. `attracts` fails exactly the coverings at
    which no level absorbs. Witnesses are compared in order, since the
    reports list them in index order."""
    held = attracts(Y, Z, F, action, family)
    levels, want = reference_attracts(Y, Z, F, action, family)
    assert held == semi_prox(Y, orbit_mask(Z, action, F), family), (Y, Z)
    missing = {i for i in range(family.size) if not (held.mask >> i) & 1}
    assert missing == set(range(family.size)) - set(levels) == set(want), (Y, Z)
    # the `attracts` row witnesses the least covering missed, as the reference
    # scan does
    row = verify_global(Y, {"Z": Z}, F, action, family, cap=1).check("attracts")
    if want:
        idx, (el, z, img) = min(want.items())
        pts = action.space.points
        assert row.witness == (
            f"Z: covering {idx} never absorbed; witness element {el!r} "
            f"sends {pts[z].pid} to {pts[img].pid}"
        ), (Y, Z)
    else:
        assert row.passed, (Y, Z)
    # J(x) seeds level k with the AND of x's stars over coverings 0..min(k, f)
    stars = [cov.point_star[x] for cov in family.coverings]
    stars_of_x = [functools.reduce(operator.and_, stars[: k + 1]) for k in F.levels()]
    for seeds, lim in (
        ([Z] * (F.depth + 1), omega_limit(Z, F, action, family)),
        (stars_of_x, prolongational_limit(x, F, action, family)),
    ):
        mask = functools.reduce(operator.and_, (
            reference_closure_mask(family, reference_orbit_mask(k, seeds[k], action, F))
            for k in F.levels()
        ))
        assert lim == mask, (Z, x)
        witnesses = reference_limit_witnesses(mask, seeds[-1], F, action, family)
        got = limit_witnesses(seeds[-1], lim, F, action, family)
        assert list(got.items()) == list(witnesses.items()), (Z, x)


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

    action = Action(space=family.space, apply_fn=apply_fn)
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


@given(random_systems(), st.data())
@settings(max_examples=300, deadline=None)
def test_absorbs_matches_the_absorption_level_on_random_systems(system, data):
    family, action, F = system
    sets = st.integers(1, family.space.full_mask)
    Y, Z = data.draw(sets), data.draw(sets)
    assert absorbs(Y, Z, F, action) == (reference_absorption_level(Y, Z, F, action) is not None)


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
    halving = Action(space=grid9, apply_fn=lambda t, i: i >> t)
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
    testsets.update(sc.random_bounded_testsets(rng, count=min(DEFAULTS["budget"], 50)))
    return dataclasses.replace(sc, testsets=testsets)


def taxonomy(testsets, F, action, family, cap):
    return check_dissipativity(
        action, F, family, testsets, cap=cap, points_sample=family.space.full_mask,
        absorb_candidate=None,
    )


def limit_compact(testsets, F, action, family, cap):
    return taxonomy(testsets, F, action, family, cap).check("limit_compact")


def assert_taxonomy_rows_match_the_definition(testsets, F, action, family, cap):
    # limit_compact, and the two other rows that read the deepest orbit or
    # the tail images
    rep = taxonomy(testsets, F, action, family, cap)
    args = (testsets, F, action, family)
    assert rep.check("limit_compact") == reference_limit_compact(*args, cap)
    assert rep.check("eventually_bounded") == reference_eventually_bounded(*args)
    assert rep.check("asymptotically_compact") == reference_asymptotically_compact(*args)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_limit_compact_matches_the_definition_on_scenarios(name, seed):
    sc = attractor_system(name, seed)
    assert_taxonomy_rows_match_the_definition(
        sc.testsets, sc.filter_basis, sc.action, sc.family, sc.cap
    )


@given(random_systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_limit_compact_matches_the_definition_on_random_systems(system, data):
    family, action, F = system
    names = data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    testsets = {name: data.draw(st.integers(1, family.space.full_mask)) for name in names}
    assert_taxonomy_rows_match_the_definition(
        testsets, F, action, family, data.draw(st.integers(1, family.space.n))
    )


def assert_absorbing_rows_match_the_definition(testsets, points_sample, F, action, family, D):
    rep = check_dissipativity(
        action, F, family, testsets, cap=1, points_sample=points_sample, absorb_candidate=D
    )
    expected = reference_absorbing_rows(testsets, points_sample, F, action, family, D)
    assert (rep.check("bounded_dissipative"), rep.check("point_dissipative")) == expected


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_absorbing_rows_match_the_definition_on_scenarios(name, seed):
    # each row tests a candidate once, against the union of the test sets
    # or of the sampled points; the definition tests them one by one
    sc = attractor_system(name, seed)
    args = (sc.testsets, sc.points_sample, sc.filter_basis, sc.action, sc.family)
    assert_absorbing_rows_match_the_definition(*args, sc.testsets[sc.absorbing_name])
    assert_absorbing_rows_match_the_definition(*args, None)


@given(random_systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_absorbing_rows_match_the_definition_on_random_systems(system, data):
    family, action, F = system
    full = family.space.full_mask
    names = data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    testsets = {name: data.draw(st.integers(1, full)) for name in names}
    # an empty sample passes at the first bounded candidate, as `all` of no points
    points_sample = data.draw(st.integers(0, full))
    D = data.draw(st.none() | st.integers(1, full))
    assert_absorbing_rows_match_the_definition(testsets, points_sample, F, action, family, D)


def test_eventually_bounded_reads_the_deepest_orbit(decay, grid, tails):
    # at radius 0.2 no covering relates 0 and 1, so the whole grid, its
    # level-0 orbit, is unbounded; halving takes the deepest orbit to {0}
    coarse = metric_chain_family(grid, 0.2, 1)
    whole = {"whole": grid.full_mask}
    assert not is_bounded(orbit_mask(grid.full_mask, decay, truncated(tails, 0)), coarse)
    row = taxonomy(whole, tails, decay, coarse, 1).check("eventually_bounded")
    assert row.passed
    assert row == reference_eventually_bounded(whole, tails, decay, coarse)


@given(random_cover_families(), st.data())
@settings(max_examples=300, deadline=None)
def test_tail_pairs_meet_exactly_where_a_star_counts_two_images(family, data):
    # point stars are symmetric, so some star holds a and b exactly when the
    # stars of a and b meet; each point lies in its own star, so a repeated
    # image is a cluster
    n = family.space.n
    pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    tail = data.draw(st.lists(st.sampled_from(pool), max_size=TAIL_WINDOW))
    for cov in family.coverings:
        stars = cov.point_star
        pairs = any(stars[a] & stars[b] for a, b in itertools.combinations(tail, 2))
        assert pairs == reference_tail_cluster(tail, stars), (tail, stars)


def test_limit_compact_reads_the_deepest_orbit_first(monkeypatch):
    # the member-measure cover searches of the seed-1 taxonomy, the row's
    # only cover searches: one member measure per deepest orbit
    real, calls = compactness.coverable_within, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(compactness, "coverable_within", counted)
    searches = {}
    for name in sorted(BUILTIN_SCENARIOS):
        sc = attractor_system(name, 1)
        calls.clear()
        row = limit_compact(sc.testsets, sc.filter_basis, sc.action, sc.family, sc.cap)
        assert row.passed == (name != "exp_decay")
        searches[name] = len(calls)
    # measures are memoised per set, and many test sets share a deepest
    # orbit; a covering that fits decides every covering it refines; and
    # exp_decay's row stops at its first failing set
    assert searches == {
        "composition": 1, "decay_grid": 1, "exp_decay": 2, "iterated_contractions": 24,
    }
