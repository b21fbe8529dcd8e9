import collections
import functools
import itertools
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdyn import covering, space as space_module
from coverdyn.covering import (
    AdmissibleFamily,
    Covering,
    CoveringError,
    DegenerateChain,
    TooManyOpens,
    chain_family,
    double_refines,
    enumerate_open_coverings,
    finite_all_coverings_family,
    first_failure,
    make_covering_masks,
    metric_chain_family,
    refines,
    relation_rows,
    verify_admissible,
)
from coverdyn.dynamics import attracts
from coverdyn.proximity import semi_prox
from coverdyn.scenarios import BUILTIN_SCENARIOS, get_scenario
from coverdyn.space import (
    EmptyInput,
    Point,
    Space,
    build_finite_topology,
    build_metric_space,
    enumerate_topologies,
    iter_bits,
    line_grid,
)

import row_forms
from reference import (
    reference_closure_mask,
    reference_distance,
    reference_point_balls,
    reference_star_basis,
    reference_star_mask,
    walk_product,
    walk_transpose,
)
from test_proximity import TOPOLOGY_FAMILIES
from test_space import random_runs


@pytest.fixture(scope="module")
def line3():
    return build_metric_space([[0.0], [1.0], [2.0]])


def cov(space, *sets):
    return make_covering_masks(space, [space.mask_of(s) for s in sets])


def picks(space, *idx):
    return space.mask_of(idx)


def test_star_enumerated_example(line3):
    U = cov(line3, {0, 1}, {1, 2})
    assert U.star_mask(picks(line3, 0)) == picks(line3, 0, 1)


def test_star_whole_space_cover(line3):
    U = cov(line3, {0, 1, 2})
    for i in range(3):
        assert U.star_mask(picks(line3, i)) == line3.full_mask


def test_star_of_whole_space(line3):
    U = cov(line3, {0, 1}, {1, 2})
    assert U.star_mask(line3.full_mask) == line3.full_mask


def test_star_empty_input(line3):
    U = cov(line3, {0, 1, 2})
    with pytest.raises(EmptyInput):
        U.star_mask(0)


def test_star_union_of_point_stars(line3):
    # St[Y,U] equals the union of the point stars over Y, exhaustively
    U = cov(line3, {0, 1}, {1, 2}, {2})
    for r in range(1, 4):
        for combo in itertools.combinations(range(3), r):
            expected = 0
            for i in combo:
                expected |= U.star_mask(picks(line3, i))
            assert U.star_mask(picks(line3, *combo)) == expected


def _check_star_kernel(fam, queries):
    """Per query set, in order: the star at each covering, the stars that
    `attracts` and `semi_prox` read, and the family closure equal their
    definitions. A set's first query meets empty stars and closure memos; a
    repeat meets memos that the other sets have written to in between. The
    stars are read cold and then warm, with the closure read before them on
    every other query, and the closure leaves the stars memo as it was."""
    want = {Y: tuple(reference_star_mask(c, Y) for c in fam.coverings) for Y in queries}
    starred = set()
    for j, Y in enumerate(queries):
        closure = reference_closure_mask(fam, Y)
        assert tuple(c.star_mask(Y) for c in fam.coverings) == want[Y]
        if j % 2:
            assert fam.closure_mask(Y) == closure
            assert set(fam.__dict__.get("_stars_cache", ())) == starred
        assert fam.stars(Y) == want[Y]
        starred.add(Y)
        assert fam.closure_mask(Y) == closure
        assert fam.stars(Y) == want[Y]
    for A, B in zip(queries, reversed(queries)):
        held = sum(1 << i for i, star in enumerate(want[A]) if B & ~star == 0)
        assert semi_prox(A, B, fam).mask == held


@st.composite
def random_cover_families(draw):
    """A family of 1-4 arbitrary coverings of a 1-10 point space."""
    space = line_grid(0.0, 1.0, draw(st.integers(1, 10)))
    full = space.full_mask
    coverings = []
    for i in range(draw(st.integers(1, 4))):
        masks = draw(st.lists(st.integers(1, full), min_size=1, max_size=6))
        missing = full & ~functools.reduce(operator.or_, masks)
        if missing:
            masks.append(missing)
        coverings.append(make_covering_masks(space, masks, label=f"c{i}"))
    return AdmissibleFamily(space=space, coverings=tuple(coverings))


@settings(max_examples=150, deadline=None)
@given(fam=random_cover_families(), data=st.data())
def test_star_kernel_matches_definitions_on_random_coverings(fam, data):
    sets = data.draw(st.lists(st.integers(1, fam.space.full_mask), min_size=1, max_size=5, unique=True))
    _check_star_kernel(fam, sets + data.draw(st.permutations(sets)) + sets)


@settings(max_examples=300, deadline=None)
@given(fam=random_cover_families())
def test_relation_rows_match_the_row_forms_on_random_coverings(fam):
    # arbitrary member masks: a member may hold both ends of a set and miss
    # a point between them, so the container lookup meets candidates that
    # its subset test must turn down
    covs = fam.coverings
    refine, double = relation_rows(covs, covs)
    assert refine == row_forms.relation_rows(covs, row_forms.refines)
    assert double == row_forms.relation_rows(covs, row_forms.double_refines)
    assert double == row_forms.relation_rows(covs, row_forms.pair_set_double_refines)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_star_kernel_matches_definitions_on_builtin_families(name):
    sc = get_scenario(name)  # a fresh family: its closure memo starts empty
    space, fam, F, action = sc.space, sc.family, sc.filter_basis, sc.action
    rng = random.Random(19)
    drawn = [
        space.mask_of(rng.sample(range(space.n), rng.randint(1, 12))) for _ in range(8)
    ]
    sets = list(dict.fromkeys(sorted(sc.testsets.values()) + drawn))
    _check_star_kernel(fam, sets + sets[::-1] + sets)
    # attracts: covering i fails exactly when no level's orbit lies in the
    # star of Y by definition, with orbits taken point by point
    for Y, Z in zip(sets, sets[1:4] + sets[:1]):
        orbits = [
            space.mask_of(action.apply_fn(el, z) for el in F.sampler(k) for z in iter_bits(Z))
            for k in F.levels()
        ]
        failures = attracts(Y, Z, F, action, fam)
        for i, cov in enumerate(fam.coverings):
            star = reference_star_mask(cov, Y)
            level = next((k for k, orbit in enumerate(orbits) if orbit & ~star == 0), None)
            assert (i in failures) == (level is None), (Y, Z, i)
            if level is None:
                assert not (star >> failures[i][2]) & 1


def test_refines_examples(line3):
    singles = cov(line3, {0}, {1}, {2})
    pairs = cov(line3, {0, 1}, {1, 2})
    assert refines(singles, pairs)
    assert not refines(pairs, singles)  # {0,1} fits in no singleton
    for U in (singles, pairs):
        assert refines(U, U)


def test_double_refines_singletons(line3):
    singles = cov(line3, {0}, {1}, {2})
    pairs = cov(line3, {0, 1}, {1, 2})
    assert double_refines(singles, pairs)


def test_double_refines_self_failure(line3):
    # {0,1} and {1,2} intersect; their union is the whole space, absent from members
    pairs = cov(line3, {0, 1}, {1, 2})
    assert not double_refines(pairs, pairs)


def test_double_refinement_through_the_pairs_when_no_star_fits():
    # on points x, a, b, c: every pair of V = {xa, xb, xc} meets at x and
    # fits in a member of U = {xab, xbc, xac}, but the star of x in V is the
    # whole space and fits in none, so only the pair test can say yes
    space = line_grid(0.0, 1.0, 4)
    x, a, b, c = (1 << i for i in range(4))
    V = make_covering_masks(space, [x | a, x | b, x | c])
    U = make_covering_masks(space, [x | a | b, x | b | c, x | a | c])
    assert V.point_star[0] == space.full_mask
    assert row_forms.double_refines(V, U) and row_forms.pair_set_double_refines(V, U)
    assert relation_rows((V,), (U,)) == ((1,), (1,))
    assert relation_rows((V, U), (V, U)) == ((0b11, 0b10), (0b10, 0b00))


def test_double_refines_quarter_balls_bruteforce():
    # quarter-radius ball coverings double-refine, verified by brute force
    # over all center pairs on a dense grid
    grid = line_grid(0.0, 1.0, 41)
    eps = 0.3
    fam = metric_chain_family(grid, eps, 1)
    U, V = fam.coverings
    assert double_refines(V, U)
    r = eps / 4
    for a, b in itertools.combinations_with_replacement(range(grid.n), 2):
        va = frozenset(p for p in range(grid.n) if reference_distance(grid, a, p) < r)
        vb = frozenset(p for p in range(grid.n) if reference_distance(grid, b, p) < r)
        if not va & vb:
            continue
        union = va | vb
        assert any(
            all(reference_distance(grid, c, p) < eps for p in union) for c in range(grid.n)
        ), f"no witness ball for centers {grid.points[a].pid}, {grid.points[b].pid}"


def test_n_refines_reduces_to_double(line3):
    # one-step reach rows are the double-refinement rows
    singles = cov(line3, {0}, {1}, {2})
    pairs = cov(line3, {0, 1}, {1, 2})
    fam = AdmissibleFamily(space=line3, coverings=(singles, pairs))
    assert fam.reach_rows(1) == fam.double_refine_rows
    assert (fam.reach_rows(1)[0] >> 1) & 1 == double_refines(singles, pairs)


def test_n_refines_chain_witnesses():
    # level i + n reaches level i in n steps through the levels between them
    grid = line_grid(0.0, 1.0, 21)
    fam = metric_chain_family(grid, 2.0, 4)
    for n in (1, 2, 3):
        for i in range(fam.size - n):
            assert (fam.reach_rows(n)[i + n] >> i) & 1


def test_metric_chain_grid_structure():
    grid = line_grid(0.0, 1.0, 101)
    fam = metric_chain_family(grid, 1.0, 5)
    assert fam.size == 6
    for i in range(1, fam.size):
        assert double_refines(fam.coverings[i], fam.coverings[i - 1])


def test_metric_chain_depth_zero():
    grid = line_grid(0.0, 1.0, 11)
    fam = metric_chain_family(grid, 2.0, 0)
    assert fam.size == 1
    assert fam.coverings[0].members == (grid.full_mask,)


def test_metric_chain_single_point():
    s = build_metric_space([[0.0]])
    fam = metric_chain_family(s, 1.0, 3)
    for c in fam.coverings:
        assert c.members == (1,)


def test_metric_chain_degenerate_ratio():
    # ratio 0.8 in place of 1/4: two just-touching radius-0.4 balls union to a
    # set no radius-0.5 ball contains
    grid = line_grid(0.0, 1.0, 101)
    balls = [make_covering_masks(grid, reference_point_balls(grid, r)) for r in (0.5, 0.4)]
    with pytest.raises(DegenerateChain, match="level 1 .* does not double-refine level 0"):
        chain_family(grid, balls)


def test_chain_family_type_refuses_an_uncertified_chain():
    grid = line_grid(0.0, 1.0, 101)
    halves = make_covering_masks(grid, [grid.mask_of(range(60)), grid.mask_of(range(40, grid.n))])
    whole = make_covering_masks(grid, [grid.full_mask])
    # the whole space fits in neither half, so the finer level fails; the
    # same coverings still form a (non-chain) family
    with pytest.raises(DegenerateChain, match=r"level 1 \(\) does not double-refine level 0"):
        chain_family(grid, (halves, whole))
    fam = AdmissibleFamily(space=grid, coverings=(halves, whole))
    assert fam.coverings == (halves, whole)
    assert not (fam.double_refine_rows[1] & 1)


def test_certification_names_the_first_failing_level_like_the_row_form():
    # level 1 fails, level 2 would pass on its own, and a second chain fails
    # only at level 2: the verdict and message match the pairwise reference
    grid = line_grid(0.0, 1.0, 101)
    halves = make_covering_masks(
        grid, [grid.mask_of(range(60)), grid.mask_of(range(40, grid.n))], label="halves"
    )
    whole = make_covering_masks(grid, [grid.full_mask], label="whole")
    singles = make_covering_masks(grid, [1 << i for i in range(grid.n)], label="singles")
    for covs in [(halves, whole, singles), (whole, halves, whole)]:
        with pytest.raises(DegenerateChain) as reference:
            row_forms.certify_chain(covs)
        with pytest.raises(DegenerateChain) as got:
            chain_family(grid, covs)
        assert str(got.value) == str(reference.value)
    assert str(got.value) == "level 2 (whole) does not double-refine level 1 (halves)"


def test_verify_admissible_makes_one_batched_relation_computation(monkeypatch):
    # a chain's certificate and its admissibility report read the same rows,
    # and so does a finite family's report: one relation_rows call over all
    # the family's coverings, and no pairwise refines/double_refines call
    calls = []
    real = covering.relation_rows

    def counted(sources, targets):
        calls.append((tuple(sources), tuple(targets)))
        return real(sources, targets)

    def pairwise(V, U):
        raise AssertionError("pairwise relation call")

    monkeypatch.setattr(covering, "relation_rows", counted)
    monkeypatch.setattr(covering, "refines", pairwise)
    monkeypatch.setattr(covering, "double_refines", pairwise)
    chain = metric_chain_family(line_grid(0.0, 1.0, 33), 2.0, 4)
    assert verify_admissible(chain).all_passed
    finite = finite_all_coverings_family(
        build_finite_topology(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b"], ["a", "b", "c"]])
    )
    verify_admissible(finite)
    assert calls == [
        (chain.coverings, chain.coverings),
        (finite.coverings, finite.coverings),
    ]


def test_relation_rows_of_a_1601_point_chain_take_no_dense_product(monkeypatch):
    # the rows come from container lookups in the point rows: no packed
    # kernel, and less memory than one n x n table of 4-byte cells (10 MB)
    fam = metric_chain_family(line_grid(0.0, 1.0, 1601), 2.0, 3)
    covs = fam.coverings
    for cov in covs:
        cov.point_star

    def dense(masks, width):
        raise AssertionError("relation rows took a packed transpose")

    monkeypatch.setattr(covering, "transpose_masks", dense)
    monkeypatch.setattr(space_module, "transpose_masks", dense)
    tracemalloc.start()
    try:
        rows = relation_rows(covs, covs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == ((0b1, 0b11, 0b111, 0b1111), (0b1, 0b1, 0b11, 0b111))
    assert peak < 4 << 20


def test_prefix_reads_the_parent_rows():
    fam = get_scenario("decay_grid").family
    for level in range(fam.size):
        prefix = fam.prefix(level)
        fresh = chain_family(fam.space, fam.coverings[: level + 1])
        assert prefix.coverings == fresh.coverings
        assert prefix.refine_rows == fresh.refine_rows
        assert prefix.double_refine_rows == fresh.double_refine_rows
        assert prefix.admissibility_report.checks == fresh.admissibility_report.checks


def test_finite_all_coverings_discrete_two_points():
    s = build_finite_topology(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
    fam = finite_all_coverings_family(s)
    members = {c.members for c in fam.coverings}
    a, b, ab = 1, 2, 3
    assert members == {(a, b), (a, ab), (b, ab), (ab,), (a, b, ab)}
    assert fam.admissibility_report.all_passed


def test_finite_all_coverings_sierpinski_style():
    s = build_finite_topology(["a", "b"], [[], ["a"], ["a", "b"]])
    fam = finite_all_coverings_family(s)
    # every covering must contain the full set (only open containing b)
    for c in fam.coverings:
        assert s.full_mask in c.members
    # stars of b are always the whole space, so the star basis fails at b
    rep = fam.admissibility_report
    assert not rep.check("star_basis").passed
    b = 1
    for c in fam.coverings:
        assert c.point_star[b] == s.full_mask


def test_finite_all_coverings_single_point():
    s = build_finite_topology(["a"], [[], ["a"]])
    fam = finite_all_coverings_family(s)
    assert fam.size == 1
    assert fam.admissibility_report.all_passed


@pytest.mark.parametrize("build", ["finite", "scenario"])
def test_admissibility_report_is_one_verify_admissible_call(monkeypatch, build):
    calls = []
    real = covering.verify_admissible

    def counted(fam):
        calls.append(fam)
        return real(fam)

    # the property reads the module-global name, so a rebinding sees its call
    monkeypatch.setattr(covering, "verify_admissible", counted)
    if build == "finite":
        fam = finite_all_coverings_family(
            build_finite_topology(["a", "b"], [[], ["a"], ["a", "b"]])
        )
    else:
        fam = get_scenario("exp_decay").family
    first = fam.admissibility_report
    assert fam.admissibility_report is first
    assert calls == [fam]
    assert first.checks == real(fam).checks


def test_enumeration_needs_a_finite_topology():
    with pytest.raises(CoveringError, match="covering enumeration needs a finite topology"):
        enumerate_open_coverings(line_grid(0.0, 1.0, 3))


def test_too_many_opens_guard():
    pts = [f"p{i}" for i in range(4)]
    opens = [[]] + [pts[: i + 1] for i in range(4)]
    # build a chain topology, then blow past the guard with a fatter lattice
    import coverdyn.covering as covering_mod

    s = build_finite_topology(pts, opens)
    old = covering_mod.MAX_OPENS_FOR_ENUMERATION
    covering_mod.MAX_OPENS_FOR_ENUMERATION = 2
    try:
        with pytest.raises(TooManyOpens):
            enumerate_open_coverings(s)
    finally:
        covering_mod.MAX_OPENS_FOR_ENUMERATION = old


def test_verify_admissible_grid_chain_passes():
    grid = line_grid(0.0, 1.0, 21)
    fam = metric_chain_family(grid, 2.0, 4)
    # finest radius 2/256 < grid step: stars resolve singletons
    assert verify_admissible(fam).all_passed


def test_verify_admissible_truncated_chain_fails_star_basis():
    grid = line_grid(0.0, 1.0, 21)
    fam = metric_chain_family(grid, 2.0, 0)
    rep = verify_admissible(fam)
    chk = rep.check("star_basis")
    assert not chk.passed
    assert chk.witness is not None


def test_closure_sierpinski():
    s = build_finite_topology(["a", "b"], [[], ["a"], ["a", "b"]])
    fam = finite_all_coverings_family(s)
    a, b = range(s.n)
    assert fam.closure_mask(s.mask_of([a])) == s.mask_of([a, b])
    assert fam.closure_mask(s.full_mask) == s.full_mask


def test_closure_matches_topological_closure_when_admissible():
    # dual route: family closure vs closure computed from the opens alone
    for opens in enumerate_topologies(3):
        pts = tuple(Point(pid=f"p{i}", index=i) for i in range(3))
        s = Space(points=pts, opens=opens)
        fam = finite_all_coverings_family(s)
        if not fam.admissibility_report.check("star_basis").passed:
            continue
        for mask in range(1, 8):
            assert fam.closure_mask(mask) == row_forms.topology_closure(s, mask), opens


def counted_star_calls(monkeypatch) -> collections.Counter:
    """Patch `Covering.star_mask` to count its calls per covering."""
    calls = collections.Counter()
    star_mask = Covering.star_mask

    def counted(cov, ymask):
        calls[cov] += 1
        return star_mask(cov, ymask)

    monkeypatch.setattr(Covering, "star_mask", counted)
    return calls


def test_closure_matches_the_definition_on_every_tiny_topology():
    # each family lists every open covering of its topology, so coverings
    # refine each other both ways and there are several minimal classes
    assert len(TOPOLOGY_FAMILIES) == 34
    for fam in TOPOLOGY_FAMILIES:
        for mask in range(1, fam.space.full_mask + 1):
            assert fam.closure_mask(mask) == reference_closure_mask(fam, mask), fam.space.opens


def test_closure_of_a_saturated_chain_reads_its_finest_level(monkeypatch):
    # on 5 points 0.25 apart every level from radius 0.125 on is the
    # singletons: levels 2-8 refine each other both ways, one minimal class
    grid = line_grid(0.0, 1.0, 5)
    fam = metric_chain_family(grid, 2.0, 8)
    singles = tuple(1 << i for i in range(grid.n))
    assert [c.members for c in fam.coverings[2:]] == [singles] * 7
    calls = counted_star_calls(monkeypatch)
    for mask in range(1, grid.full_mask + 1):
        assert fam.closure_mask(mask) == reference_closure_mask(fam, mask)
    assert calls == {fam.coverings[-1]: grid.full_mask}  # once per nonempty set


def test_closure_of_a_new_set_reads_one_star_on_the_grid_scale_family(monkeypatch):
    # the 201-point chain of the benchmark's grid-scale workload: its finest
    # level refines every other, so it alone is minimal
    fam = get_scenario("decay_grid", count=201).family
    Y = fam.space.mask_of([3, 100, 157])
    assert Y not in fam.__dict__.get("_closure_cache", {})
    calls = counted_star_calls(monkeypatch)
    assert fam.closure_mask(Y) == reference_closure_mask(fam, Y)
    assert calls == {fam.coverings[-1]: 1}


def test_closure_grid_singleton_at_depth():
    grid = line_grid(0.0, 1.0, 21)
    fam = metric_chain_family(grid, 2.0, 4)
    p = grid.mask_of([7])
    assert fam.closure_mask(p) == p


def test_closure_properties_on_topologies():
    # idempotent, extensive, monotone
    s = build_finite_topology(
        ["a", "b", "c"], [[], ["a"], ["a", "b"], ["a", "b", "c"]]
    )
    fam = finite_all_coverings_family(s)
    for mask in range(1, 8):
        cl = fam.closure_mask(mask)
        assert mask & ~cl == 0
        assert fam.closure_mask(cl) == cl
        for other in range(1, 8):
            if mask & ~other == 0:
                assert cl & ~fam.closure_mask(other) == 0


def test_replete_closure_fixed_point():
    # the all-open-coverings family is replete: refinement from its members
    # into a fresh listing of every open covering reaches no covering beyond
    # the family's own refine rows
    s = build_finite_topology(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
    fam = finite_all_coverings_family(s)
    universe = enumerate_open_coverings(s)
    assert [U.members for U in universe] == [c.members for c in fam.coverings]
    refine, _ = relation_rows(fam.coverings, universe)
    assert refine == fam.refine_rows


def test_replete_closure_grows_from_finest():
    # the singleton covering refines every open covering
    s = build_finite_topology(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
    fam = finite_all_coverings_family(s)
    finest = next(i for i, c in enumerate(fam.coverings) if c.members == (1, 2))
    assert fam.refine_rows[finest] == (1 << fam.size) - 1


def test_double_refines_implies_refines_exhaustive():
    # over all covering pairs of a small discrete topology
    s = build_finite_topology(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
    covs = enumerate_open_coverings(s)
    for V, U in itertools.product(covs, covs):
        if double_refines(V, U):
            assert refines(V, U)


def test_refines_transitive_exhaustive():
    s = build_finite_topology(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
    covs = enumerate_open_coverings(s)
    for A, B, C in itertools.product(covs, repeat=3):
        if refines(A, B) and refines(B, C):
            assert refines(A, C)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_star_monotone_random(data):
    grid = line_grid(0.0, 1.0, 9)
    fam = metric_chain_family(grid, 2.0, 2)
    U = data.draw(st.sampled_from(fam.coverings))
    y = data.draw(st.sets(st.integers(0, 8), min_size=1, max_size=9))
    extra = data.draw(st.sets(st.integers(0, 8), max_size=9))
    Y = grid.mask_of(y)
    Z = Y | grid.mask_of(extra)
    assert U.star_mask(Y) & ~U.star_mask(Z) == 0


def test_space_mismatch_errors(line3):
    other = build_metric_space([[0.0], [5.0]])
    U = cov(line3, {0, 1, 2})
    V = make_covering_masks(other, [other.full_mask])
    from coverdyn.covering import SpaceMismatch

    with pytest.raises(SpaceMismatch):
        refines(V, U)
    with pytest.raises(SpaceMismatch):
        double_refines(V, U)


def _first(cases):
    return next(iter(cases), None)


def admissible_oracle(fam):
    """Oracle for verify_admissible from the reference row forms and direct star calls."""
    space, covs, L = fam.space, fam.coverings, fam.size
    pts = space.points
    checks = []

    j = _first(j for j in range(L) if not any(row_forms.double_refines(V, covs[j]) for V in covs))
    checks.append(
        ("double_refinement_exists", j is None,
         None if j is None else f"no double-refinement of {covs[j].label or j}")
    )

    row = reference_star_basis(fam)
    checks.append((row.name, row.passed, row.witness))

    pair = _first(
        (i, j)
        for i, j in itertools.product(range(L), repeat=2)
        if not any(row_forms.refines(W, covs[i]) and row_forms.refines(W, covs[j]) for W in covs)
    )
    checks.append(
        ("common_refinement", pair is None,
         None if pair is None else f"no common refinement of ({pair[0]},{pair[1]})")
    )

    x = _first(
        x for x in range(space.n)
        if functools.reduce(int.__or__, (U.star_mask(1 << x) for U in covs)) != space.full_mask
    )
    checks.append(
        ("stars_exhaust_space", x is None,
         None if x is None else f"stars of {pts[x].pid} do not exhaust the space")
    )

    pair = _first(
        (i, j)
        for i, j in itertools.product(range(L), repeat=2)
        if not any(
            row_forms.double_refines(covs[i], W) and row_forms.double_refines(covs[j], W)
            for W in covs
        )
    )
    checks.append(
        ("common_double_coarsening", pair is None,
         None if pair is None else f"no common double-coarsening of ({pair[0]},{pair[1]})")
    )
    return checks


def test_verify_admissible_matches_oracle_on_small_subfamilies():
    # every family of one or two open coverings of every topology on at most
    # three points; most of them fail some relation check
    failures = dict.fromkeys(
        ("double_refinement_exists", "common_refinement", "common_double_coarsening"), 0
    )
    for n in (1, 2, 3):
        for opens in enumerate_topologies(n):
            space = Space(points=tuple(Point(pid=f"p{i}", index=i) for i in range(n)), opens=opens)
            covs = enumerate_open_coverings(space)
            for k in (1, 2):
                for sub in itertools.combinations(covs, k):
                    fam = AdmissibleFamily(space=space, coverings=sub)
                    got = [(c.name, c.passed, c.witness) for c in verify_admissible(fam).checks]
                    assert got == admissible_oracle(fam), sub
                    for name, ok, _ in got:
                        if name in failures:
                            failures[name] += not ok
    assert all(failures.values()), failures


def test_star_basis_matches_the_all_opens_scan():
    # every topology on at most three points, with its family of all open
    # coverings and each one-covering subfamily, and line chains that pass
    # and fail the row; the row tests each point against its least open
    families = []
    for n in (1, 2, 3):
        for opens in enumerate_topologies(n):
            space = Space(points=tuple(Point(pid=f"p{i}", index=i) for i in range(n)), opens=opens)
            fam = finite_all_coverings_family(space)
            families += [fam, *(AdmissibleFamily(space=space, coverings=(c,)) for c in fam.coverings)]
    families += [
        metric_chain_family(line_grid(0.0, 1.0, n), eps0, depth)
        for n, eps0, depth in [(1, 2.0, 0), (9, 2.0, 1), (21, 2.0, 4), (33, 0.5, 3), (65, 2.0, 3)]
    ]
    verdicts = collections.Counter()
    for fam in families:
        row = verify_admissible(fam).check("star_basis")
        assert row == reference_star_basis(fam), fam
        verdicts[row.passed, fam.space.is_metric] += 1
    assert len(families) == 397
    assert all(verdicts[key] for key in itertools.product((False, True), repeat=2)), verdicts


def test_first_failure_passes_on_empty_stream():
    r = first_failure("law", iter(()))
    assert (r.name, r.passed, r.witness) == ("law", True, None)


def test_first_failure_fails_with_first_witness():
    r = first_failure("law", ["a", "b"])
    assert (r.name, r.passed, r.witness) == ("law", False, "a")


def test_first_failure_reads_no_further_than_the_first_witness():
    # checks that draw random numbers rely on this: no draw after a failure
    produced = []

    def witnesses():
        for w in ("first", "second", "third"):
            produced.append(w)
            yield w

    assert first_failure("law", witnesses()).witness == "first"
    assert produced == ["first"]


def spy_dense(monkeypatch):
    """Count the calls of `transpose_masks`, the one packed kernel that
    `Covering` reads."""
    calls = collections.Counter()
    real = covering.transpose_masks

    def counted(*args):
        calls["transpose_masks"] += 1
        return real(*args)

    monkeypatch.setattr(covering, "transpose_masks", counted)
    return calls


@pytest.mark.parametrize("n", [1, 7, 9, 40, 65])
def test_a_covering_of_runs_takes_the_sweeps(monkeypatch, n):
    space = line_grid(0.0, 1.0, n)
    rng = random.Random(n)
    calls = spy_dense(monkeypatch)
    for _ in range(8):
        c = make_covering_masks(space, random_runs(rng, n))
        rows = walk_transpose(c.members, n)
        assert c.point_rows == rows
        assert c.point_star == walk_product(rows, rows)
        assert c.point_star == row_forms.point_star(c)
    assert calls == {}


@pytest.mark.parametrize("n", [3, 9, 40])
def test_a_covering_with_one_gapped_member_keeps_the_packed_kernels(monkeypatch, n):
    space = line_grid(0.0, 1.0, n)
    rng = random.Random(n)
    calls = spy_dense(monkeypatch)
    for k in range(8):
        gapped = 1 | 1 << rng.randrange(2, n)
        c = make_covering_masks(space, random_runs(rng, n) + [gapped])
        assert c._spans is None
        rows = walk_transpose(c.members, n)
        assert c.point_rows == rows
        assert c.point_star == walk_product(rows, rows)
        assert calls == {"transpose_masks": k + 1}


def test_a_line_grid_chain_takes_no_packed_kernel(monkeypatch):
    # every ball of a line grid is an interval, from ball_rows to the stars
    calls = spy_dense(monkeypatch)
    fam = metric_chain_family(line_grid(0.0, 1.0, 101), 2.0, 4)
    verify_admissible(fam)
    assert calls == {}
    for c in fam.coverings:
        assert c.point_star == row_forms.point_star(c)
