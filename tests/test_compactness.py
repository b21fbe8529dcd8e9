import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdyn import compactness
from coverdyn.compactness import (
    CoverSearchBudgetExceeded,
    NotClosed,
    NotDecreasing,
    cantor_kuratowski_check,
    coverable_within,
    default_cap,
    is_bounded,
    is_cauchy,
    is_totally_bounded,
    member_measure,
    star_measure,
)
from coverdyn.covering import (
    chain_family,
    finite_all_coverings_family,
    metric_chain_family,
)
from coverdyn.dynamics import Action, integer_tails, nat_add, orbit_mask, orbit_rows
from coverdyn.proximity import CoverCollection, coarsen, converges_to_zero, precedes
from coverdyn.space import EmptyInput, build_finite_topology, line_grid
from reference import (
    reference_coverable_within,
    reference_undominated,
    unbounded_coverable_within,
)
from test_proximity import ALL_FAMILIES, CHAIN_ROW_CASES, TOPOLOGY_FAMILIES, family_id


@pytest.fixture(scope="module")
def grid():
    return line_grid(0.0, 1.0, 101)


@pytest.fixture(scope="module")
def fam(grid):
    return metric_chain_family(grid, 2.0, 5)


def pickset(grid, *idx):
    return grid.mask_of(idx)


def naive_min_cover(target, candidates):
    """Oracle: exhaustive minimum cover by subset enumeration (tiny inputs)."""
    cands = [c for c in candidates if c & target]
    for r in range(1, len(cands) + 1):
        for combo in itertools.combinations(cands, r):
            u = 0
            for c in combo:
                u |= c
            if target & ~u == 0:
                return r
    return None


def test_coverable_within_matches_oracle():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(3, 9)
        target = rng.randint(1, (1 << n) - 1)
        candidates = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 7))]
        best = naive_min_cover(target, candidates)
        for cap in range(1, 6):
            expected = best is not None and best <= cap
            assert coverable_within(target, candidates, cap) == expected


def _random_instance(rng, n):
    target = rng.randint(1, (1 << n) - 1)
    candidates = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(5, 25))]
    return target, candidates


def _interval_instance(rng, n):
    # a random union of runs against intervals of a few widths, the shape of
    # metric balls on a line grid
    target = 0
    for _ in range(rng.randint(1, 4)):
        lo = rng.randrange(n)
        target |= ((1 << rng.randint(1, n - lo)) - 1) << lo
    candidates = []
    for _ in range(rng.randint(5, 30)):
        lo, width = rng.randrange(n), rng.randint(1, 8)
        candidates.append(((1 << width) - 1) << lo & ((1 << n) - 1))
    return target, candidates


def _tiling_instance(rng, n):
    # runs of one width at every offset, over a target they tile exactly:
    # the cover at cap n // width fills every slot to the widest size
    width = rng.randint(2, 5)
    n -= n % width
    runs = [((1 << width) - 1) << lo for lo in range(n - width + 1)]
    return (1 << n) - 1, rng.sample(runs, len(runs))


@pytest.mark.parametrize("shape", [_random_instance, _interval_instance, _tiling_instance])
def test_counting_bound_matches_unbounded_search(shape):
    # wherever the unbounded search finishes within its budget, the bounded
    # one gives the same answer within the same budget
    rng = random.Random(17)
    budget = 2_000
    answers = {True: 0, False: 0}
    for _ in range(150):
        target, candidates = shape(rng, rng.randint(20, 40))
        for cap in range(1, 9):
            try:
                want = unbounded_coverable_within(target, candidates, cap, budget)
            except CoverSearchBudgetExceeded:
                continue
            assert coverable_within(target, candidates, cap, node_budget=budget) == want
            answers[want] += 1
    assert min(answers.values()) >= 100, answers


def _least_budget(decide, target, candidates, cap, limit):
    """The answer of `decide` and the least node budget at which it answers,
    or (None, None) when it needs more than `limit` nodes."""
    def answer(budget):
        try:
            return decide(target, candidates, cap, node_budget=budget)
        except CoverSearchBudgetExceeded:
            return None

    want = answer(limit)
    if want is None:
        return None, None
    lo, hi = 0, limit  # the search answers at hi and at every larger budget
    while lo < hi:
        mid = (lo + hi) // 2
        if answer(mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return want, lo


@pytest.mark.parametrize("shape", [_random_instance, _interval_instance, _tiling_instance])
def test_cover_decision_matches_reference_answer_and_least_budget(shape):
    # the trace shortcut and the size-class dominance filter change neither
    # the answer nor the least node budget that answers, at any cap
    rng = random.Random(23)
    limit = 2_000
    searched = 0
    for _ in range(60):
        target, candidates = shape(rng, rng.randint(20, 40))
        for cap in range(1, 9):
            got = _least_budget(coverable_within, target, candidates, cap, limit)
            assert got == _least_budget(reference_coverable_within, target, candidates, cap, limit)
            searched += (got[1] or 0) > 0
    assert searched >= 10, searched


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cap_at_least_the_traces_answers_without_search(data):
    n = data.draw(st.integers(1, 10))
    target = data.draw(st.integers(1, (1 << n) - 1))
    candidates = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    traces = {c & target for c in candidates if c & target}
    cap = data.draw(st.integers(len(traces), len(traces) + 3))
    best = naive_min_cover(target, candidates)
    want = best is not None and best <= cap
    assert coverable_within(target, candidates, cap, node_budget=0) == want


@settings(max_examples=300, deadline=None)
@given(sets=st.sets(st.integers(1, (1 << 7) - 1), max_size=40), data=st.data())
def test_size_class_dominance_filter_matches_quadratic_loop(sets, data):
    # on 7 points most sizes hold many sets, so each size class is long;
    # within a class the drawn order is kept, as a stable sort keeps it
    cands = sorted(data.draw(st.permutations(sorted(sets))), key=int.bit_count, reverse=True)
    assert compactness._undominated(cands) == reference_undominated(cands)


def test_counting_bound_decides_no_without_search():
    # ten 3-point runs cannot hold 31 points: answered before any search node,
    # where the unbounded search needs one after greedy takes eleven runs
    runs = [0b111 << i for i in range(29)]
    target = (1 << 31) - 1
    assert not coverable_within(target, runs, 10, node_budget=0)
    with pytest.raises(CoverSearchBudgetExceeded):
        unbounded_coverable_within(target, runs, 10, 0)


def test_exact_cover_search_leaves_no_cyclic_garbage():
    # greedy takes the 4-point candidate and then needs three, so the exact
    # search runs; its recursive closure and per-point lists must be freed
    # by reference counting alone, with the cyclic collector off
    gc.disable()
    try:
        gc.collect()
        assert coverable_within(0b111111, [0b000111, 0b111000, 0b011110], 2)
        assert gc.collect() == 0
    finally:
        gc.enable()
    # freeing the search changes no node count: the grid cover below needs
    # exactly 56 search nodes
    grid = line_grid(0.0, 1.0, 101)
    stars = metric_chain_family(grid, 2.0, 6).coverings[3].point_star
    with pytest.raises(CoverSearchBudgetExceeded):
        coverable_within(grid.full_mask, stars, 8, node_budget=55)
    assert coverable_within(grid.full_mask, stars, 8, node_budget=56)


def test_counting_bound_finds_grid_cover_the_unbounded_search_misses():
    # the 101-point grid by the level-3 point stars of a depth-6 chain at cap 8
    grid = line_grid(0.0, 1.0, 101)
    stars = metric_chain_family(grid, 2.0, 6).coverings[3].point_star
    assert coverable_within(grid.full_mask, stars, 8, node_budget=1_000)
    with pytest.raises(CoverSearchBudgetExceeded):
        unbounded_coverable_within(grid.full_mask, stars, 8, 10_000)


def test_bounded_singleton(grid, fam):
    assert is_bounded(pickset(grid, 3), fam)


def test_bounded_whole_grid(grid, fam):
    # the coarsest covering has radius above the diameter
    assert is_bounded(grid.full_mask, fam)


def test_unbounded_under_fine_only_family(grid):
    # drop the coarse levels: far points never share a member
    full = metric_chain_family(grid, 2.0, 5)
    fine_only = chain_family(grid, full.coverings[3:])
    assert not is_bounded(pickset(grid, 0, 100), fine_only)
    assert is_bounded(pickset(grid, 50, 51), fine_only)


def test_empty_inputs(grid, fam):
    with pytest.raises(EmptyInput):
        is_bounded(0, fam)
    with pytest.raises(EmptyInput):
        star_measure(0, fam, 4)


def test_totally_bounded_always_on_finite(grid, fam):
    rng = random.Random(5)
    for _ in range(20):
        Y = grid.mask_of(rng.sample(range(grid.n), rng.randint(1, 30)))
        assert is_totally_bounded(Y, fam)


def test_totally_bounded_implies_bounded(grid, fam):
    # property run over 100 random subsets
    rng = random.Random(17)
    for _ in range(100):
        Y = grid.mask_of(rng.sample(range(grid.n), rng.randint(1, 40)))
        if is_totally_bounded(Y, fam):
            assert is_bounded(Y, fam)


def test_star_of_bounded_is_bounded(grid, fam):
    rng = random.Random(23)
    for _ in range(100):
        Y = grid.mask_of(rng.sample(range(grid.n), rng.randint(1, 25)))
        if not is_bounded(Y, fam):
            continue
        U = fam.coverings[rng.randint(0, fam.depth)]
        assert is_bounded(U.star_mask(Y), fam)


def test_small_sets_have_zero_measure(grid, fam):
    cap = default_cap(grid.n)
    rng = random.Random(2)
    for _ in range(20):
        Y = grid.mask_of(rng.sample(range(grid.n), rng.randint(1, cap)))
        assert star_measure(Y, fam, cap).is_zero


def test_measure_monotone_under_inclusion(grid, fam):
    cap = 6
    rng = random.Random(9)
    for _ in range(60):
        Y = grid.mask_of(rng.sample(range(grid.n), rng.randint(1, 20)))
        Z = Y | grid.mask_of(rng.sample(range(grid.n), rng.randint(1, 20)))
        assert precedes(star_measure(Y, fam, cap), star_measure(Z, fam, cap))


def test_measure_union_law_bracket(grid, fam):
    # capped form of the union law: the union's measure sits between the
    # intersection at the same cap and the union's measure at doubled cap
    cap = 6
    rng = random.Random(13)
    seen_equal = 0
    for _ in range(40):
        Y = grid.mask_of(rng.sample(range(grid.n), rng.randint(1, 15)))
        Z = grid.mask_of(rng.sample(range(grid.n), rng.randint(1, 15)))
        lhs = star_measure(Y | Z, fam, cap)
        rhs = star_measure(Y, fam, cap) & star_measure(Z, fam, cap)
        wide = star_measure(Y | Z, fam, 2 * cap)
        assert precedes(rhs, lhs)
        assert precedes(wide, rhs)
        seen_equal += lhs == rhs
    assert seen_equal > 0


def test_measure_union_law_exact_with_ample_cap(grid, fam):
    # with cap at least the two cover sizes combined, the law is an equality
    rng = random.Random(14)
    for _ in range(25):
        Y = grid.mask_of(rng.sample(range(grid.n), rng.randint(1, 12)))
        Z = grid.mask_of(rng.sample(range(grid.n), rng.randint(1, 12)))
        cap = (Y | Z).bit_count()
        lhs = star_measure(Y | Z, fam, cap)
        rhs = star_measure(Y, fam, cap) & star_measure(Z, fam, cap)
        assert lhs == rhs


def test_measure_closure_bracket(grid):
    # alpha(Y) precedes alpha(cls Y) precedes the once-coarsened alpha(Y),
    # exercised on a 40-point space against a truncated family
    g40 = line_grid(0.0, 1.0, 40)
    fam40 = metric_chain_family(g40, 2.0, 3)
    cap = 5
    rng = random.Random(31)
    for _ in range(200):
        Y = g40.mask_of(rng.sample(range(g40.n), rng.randint(1, 12)))
        aY = star_measure(Y, fam40, cap)
        aC = star_measure(fam40.closure_mask(Y), fam40, cap)
        assert precedes(aY, aC)
        assert precedes(aC, coarsen(aY, 1))


def test_member_cover_bracket(grid, fam):
    # alpha precedes the member-cover measure precedes once-coarsened alpha
    cap = 6
    rng = random.Random(37)
    for _ in range(60):
        Y = grid.mask_of(rng.sample(range(grid.n), rng.randint(1, 15)))
        a = star_measure(Y, fam, cap)
        b = member_measure(Y, fam, cap)
        assert precedes(a, b)
        assert precedes(b, coarsen(a, 1))


def test_measures_on_finite_kind():
    s = build_finite_topology(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
    fam = finite_all_coverings_family(s)
    assert star_measure(s.full_mask, fam, 2).is_zero
    one = star_measure(s.full_mask, fam, 1)
    # with one star allowed, only coverings whose star at a point is everything qualify
    expected = {
        i
        for i, cov in enumerate(fam.coverings)
        if any(cov.point_star[x] == s.full_mask for x in range(2))
    }
    assert one.mask == sum(1 << i for i in expected)


def test_cauchy_eventually_constant(grid, fam):
    seq = [40, 7, 3] + [3] * 5
    assert is_cauchy(seq, fam)


def test_cauchy_alternating_fails(grid, fam):
    seq = [0, 40] * 5
    assert not is_cauchy(seq, fam)


def test_cauchy_geometric_decay(grid, fam):
    # 2^-k snapped onto the hundredths grid: 0.50, 0.25, 0.13, 0.06, 0.03, ...
    snapped = [50, 25, 13, 6, 3, 2, 1, 0, 0, 0]
    assert is_cauchy(snapped, fam)


def test_cauchy_clusters_at_resolution(grid, fam):
    # finite-sample completeness: a Cauchy sequence clusters at some point
    # at every resolution
    rng = random.Random(41)
    for _ in range(20):
        tail = rng.randint(0, 100)
        seq = [rng.choice(range(grid.n)) for _ in range(4)] + [tail] * 6
        assert is_cauchy(seq, fam)
        for level in range(fam.size):
            star_masks = fam.coverings[level].point_star
            assert any(
                sum((star_masks[p] >> q) & 1 for q in seq[-3:]) >= 2
                for p in range(grid.n)
            )


def shrinking_chain(grid, fam, center_idx, count):
    out = []
    radius = 1.1
    for _ in range(count):
        m = 0
        for i, p in enumerate(grid.points):
            if abs(p.coords[0] - grid.points[center_idx].coords[0]) < radius:
                m |= 1 << i
        out.append(fam.closure_mask(m))
        radius /= 4
    return out


def test_nested_chain_positive(grid, fam):
    cap = default_cap(grid.n)
    chain = shrinking_chain(grid, fam, 50, 5)
    rep = cantor_kuratowski_check(chain, fam, cap)
    assert rep.hypothesis_met
    assert rep.claim == "nonempty compact intersection"
    assert (rep.intersection_mask >> 50) & 1


def test_nested_chain_constant_whole_space(grid, fam):
    # the whole space stays measure-zero only when the cap covers it outright
    cap = grid.n
    chain = [grid.full_mask] * 4
    rep = cantor_kuratowski_check(chain, fam, cap)
    assert rep.hypothesis_met
    assert rep.intersection_mask == grid.full_mask
    assert all(v.is_zero for v in rep.measure_trace)


def test_nested_chain_hypothesis_not_met(grid, fam):
    # a tiny cap keeps the measure away from zero: no claim is made
    spread = grid.mask_of(range(0, grid.n, 10))
    chain = [spread] * 4
    rep = cantor_kuratowski_check(chain, fam, cap=2)
    assert not rep.hypothesis_met
    assert rep.claim == "hypothesis not met"


def test_nested_chain_error_cases(grid, fam):
    with pytest.raises(NotDecreasing):
        cantor_kuratowski_check(
            [pickset(grid, 1), pickset(grid, 1, 2)], fam, cap=10
        )
    with pytest.raises(NotClosed):
        # a singleton is closed at this depth, but a pair missing its
        # star-mates at the coarse truncation is not
        coarse = metric_chain_family(grid, 2.0, 1)
        cantor_kuratowski_check([pickset(grid, 3, 50)], coarse, cap=10)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_measure_monotone_hypothesis(data):
    g = line_grid(0.0, 1.0, 13)
    f = metric_chain_family(g, 2.0, 3)
    y = data.draw(st.sets(st.integers(0, 12), min_size=1, max_size=13))
    extra = data.draw(st.sets(st.integers(0, 12), max_size=13))
    cap = data.draw(st.integers(1, 5))
    Y = g.mask_of(y)
    Z = Y | g.mask_of(extra)
    assert precedes(star_measure(Y, f, cap), star_measure(Z, f, cap))


# The measures are memoized on the family per (set, cap, candidate name) and
# skip the coverings a fit already implies; these tests hold them to the
# definition.
def reference_measure(ymask, family, cap, candidate_sets):
    """Oracle: the definition, deciding every covering and collecting those that fit."""
    if ymask == 0:
        raise EmptyInput("measure of the empty set is undefined")
    mask = 0
    for i, cov in enumerate(family.coverings):
        if coverable_within(ymask, candidate_sets(cov), cap):
            mask |= 1 << i
    return CoverCollection(family, mask)


MEASURES = {
    "star": (star_measure, lambda cov: cov.point_star),
    "member": (member_measure, lambda cov: cov.members),
}


def _check_against_reference(family, masks, caps):
    # the second pass is answered from the memo
    for _ in range(2):
        for ymask in masks:
            for cap in caps:
                for measure, candidate_sets in MEASURES.values():
                    want = reference_measure(ymask, family, cap, candidate_sets)
                    assert measure(ymask, family, cap).mask == want.mask, (ymask, cap, measure)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=family_id)
def test_memoized_measures_match_reference(family):
    # every nonempty subset on the small spaces, random subsets on the rest
    n = family.space.n
    rng = random.Random(n)
    masks = range(1, 1 << n) if n <= 9 else [rng.randint(1, (1 << n) - 1) for _ in range(100)]
    _check_against_reference(family, masks, caps=(1, 2, 3))


def test_memoized_measures_match_reference_on_grid_chain(grid, fam):
    rng = random.Random(43)
    masks = [grid.mask_of(rng.sample(range(grid.n), rng.randint(1, 40))) for _ in range(30)]
    _check_against_reference(fam, masks, caps=(1, 2, 3, default_cap(grid.n)))


def _searches_per_fresh_measure(monkeypatch, family, ymask, cap, name):
    """The coverable_within calls of one measure query on an empty memo, and
    the reference mask of the coverings that fit."""
    measure, candidate_sets = MEASURES[name]
    want = reference_measure(ymask, family, cap, candidate_sets).mask
    searched = []

    def counted(target, candidates, cap):
        searched.append(candidates)
        return coverable_within(target, candidates, cap)

    monkeypatch.setattr(compactness, "coverable_within", counted)
    family.__dict__.pop("_measure_cache", None)
    try:
        assert measure(ymask, family, cap).mask == want
    finally:
        monkeypatch.undo()
    return searched, want


@pytest.mark.parametrize("case", list(CHAIN_ROW_CASES))
def test_chain_measures_search_from_the_finest_level_to_the_first_fit(monkeypatch, case):
    # a chain's measure searches levels depth, depth - 1, ..., L, where L is
    # the finest level that fits, and all of them when none fits
    rng = random.Random(53)
    for family in CHAIN_ROW_CASES[case]():
        n = family.space.n
        for _ in range(4):
            Y = rng.randint(1, (1 << n) - 1) & rng.randint(1, (1 << n) - 1) or 1
            for cap in (1, 3):
                for name in MEASURES:
                    searched, want = _searches_per_fresh_measure(monkeypatch, family, Y, cap, name)
                    finest = want.bit_length() - 1
                    assert len(searched) == family.depth + 1 - max(finest, 0), (Y, cap, name)


def test_tiny_topology_measures_skip_implied_coverings(monkeypatch):
    # a covering is searched exactly when no covering of larger index that
    # fits refines it; so no query searches more than every covering, and
    # some search fewer
    fewer = 0
    for family in TOPOLOGY_FAMILIES:
        rows = family.refine_rows
        for Y in range(1, 1 << family.space.n):
            for cap in (1, 2, 3):
                for name in MEASURES:
                    searched, want = _searches_per_fresh_measure(monkeypatch, family, Y, cap, name)
                    implied = [
                        any((want >> j) & 1 and (rows[j] >> i) & 1 for j in range(i + 1, family.size))
                        for i in range(family.size)
                    ]
                    candidate_sets = MEASURES[name][1]
                    assert [id(c) for c in searched] == [
                        id(candidate_sets(family.coverings[i]))
                        for i in reversed(range(family.size))
                        if not implied[i]
                    ]
                    assert len(searched) <= family.size
                    fewer += len(searched) < family.size
    assert fewer


def _small_chain():
    return metric_chain_family(line_grid(0.0, 1.0, 13), 2.0, 3)


def _three_point_topology():
    # its 22 coverings tell the caps and the candidate kinds apart
    opens = [[], ["a"], ["b"], ["a", "b"], ["a", "c"], ["a", "b", "c"]]
    return finite_all_coverings_family(build_finite_topology(["a", "b", "c"], opens))


@pytest.mark.parametrize("make", [_small_chain, _three_point_topology])
def test_interleaved_queries_match_a_fresh_family(make):
    # one family answers the same set at two caps and for stars then members;
    # each answer must equal the one a fresh, empty-memo family gives
    shared = make()
    n = shared.space.n
    rng = random.Random(47)
    seen = {"cap": 0, "kind": 0}
    for _ in range(25):
        Y = rng.randint(1, (1 << n) - 1)
        answers = {}
        for name, cap in (("star", 1), ("star", 2), ("member", 1), ("member", 2), ("star", 1)):
            measure = MEASURES[name][0]
            got = measure(Y, shared, cap).mask
            assert got == measure(Y, make(), cap).mask, (Y, name, cap)
            answers[name, cap] = got
        seen["cap"] += answers["star", 1] != answers["star", 2]
        seen["kind"] += answers["star", 1] != answers["member", 1]
    # the draws must tell the caps and the candidate kinds apart
    assert seen["cap"] > 0 and seen["kind"] > 0


@pytest.mark.parametrize("make", [_small_chain, _three_point_topology])
def test_measured_family_is_freed_without_cyclic_gc(make):
    # the memos must not tie a family or an action into a reference cycle:
    # with the cyclic collector off, dropping the last reference frees it at once
    gc.disable()
    try:
        family = make()
        space = family.space
        Y = space.full_mask
        for measure, _ in MEASURES.values():
            assert measure(Y, family, 1).family is family
        assert family.closure_mask(1) == family.closure_mask(1)
        assert family.stars(Y) == family.stars(Y) == tuple(c.star_mask(Y) for c in family.coverings)
        action = Action(semigroup=nat_add(), space=space, apply_fn=lambda t, i: 0)
        F = integer_tails(nat_add(), depth=2)
        assert orbit_mask(1, Y, action, F) == orbit_mask(1, Y, action, F) == 1
        assert orbit_rows(2, action, F) == (1,) * space.n
        refs = [weakref.ref(family), weakref.ref(action)]
        del family, action
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
