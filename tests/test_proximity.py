import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdyn.compactness import is_bounded, is_cauchy
from coverdyn.covering import (
    DegenerateChain,
    chain_family,
    double_refines,
    finite_all_coverings_family,
    metric_chain_family,
)
from coverdyn.proximity import (
    CoverCollection,
    FamilyMismatch,
    coarsen,
    converges_to_zero,
    point_sequence_converges,
    precedes,
    prox,
    prox_to_set,
    semi_prox,
    sets_equal_at_resolution,
    subset_at_resolution,
)
from coverdyn.scenarios import get_scenario
from coverdyn.space import (
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
    convergence_trace,
    reference_distance,
    reference_point_sequence_converges,
    zero_collection,
)


@pytest.fixture(scope="module")
def grid():
    return line_grid(0.0, 1.0, 101)


@pytest.fixture(scope="module")
def fam(grid):
    # coarsest radius above the diameter; finest resolves single grid points
    return metric_chain_family(grid, 2.0, 5)


@pytest.fixture(scope="module")
def tiny():
    s = build_finite_topology(["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
    return finite_all_coverings_family(s)


def naive_prox_indices(x, y, family):
    """Independent oracle: direct membership scan over every covering."""
    out = set()
    for i, cov in enumerate(family.coverings):
        if any((m >> x) & 1 and (m >> y) & 1 for m in cov.members):
            out.add(i)
    return frozenset(out)


def indices(v):
    """The covering indices of a collection value, as a set."""
    return frozenset(iter_bits(v.mask))


def levels(fam, t):
    """Levels 0..t of a chain as a collection: the prefix mask; -1 is empty."""
    return CoverCollection(fam, (1 << (t + 1)) - 1)


def family_id(f):
    """Test id: "chain" for the metric chains, "finite" for the families of
    every open covering of a finite topology, then points and coverings."""
    return f"{'chain' if f.space.opens is None else 'finite'}{f.space.n}-{f.size}"


def test_zero_precedes_everything(fam):
    zero = zero_collection(fam)
    for t in (-1, 0, 2, fam.depth):
        assert precedes(zero, levels(fam, t))


def test_empty_is_upper_bound(fam):
    top = CoverCollection(fam, 0)
    for t in (-1, 0, 2, fam.depth):
        assert precedes(levels(fam, t), top)


def test_precedes_reflexive_antisymmetric(fam):
    vals = [levels(fam, t) for t in (-1, 0, 3, fam.depth)]
    for a in vals:
        assert precedes(a, a)
    for a, b in itertools.combinations(vals, 2):
        assert precedes(a, b) != precedes(b, a)


def test_family_mismatch(fam, tiny):
    with pytest.raises(FamilyMismatch):
        precedes(zero_collection(fam), zero_collection(tiny))


def test_coarsen_zero_fixed_point(fam):
    zero = zero_collection(fam)
    for n in range(1, fam.depth + 1):
        assert coarsen(zero, n) == zero


def test_coarsen_shifts_thresholds(fam):
    # mid prefixes move down by n on this chain (witnesses are consecutive levels)
    for t in range(1, fam.depth - 1):
        for n in range(1, t + 1):
            out = coarsen(levels(fam, t), n)
            assert out == levels(fam, t - n)
            assert out.mask.bit_length() - 1 == t - n


def test_coarsen_empty(fam):
    top = CoverCollection(fam, 0)
    assert coarsen(top, 1) == top


def test_coarsen_order_preserving(fam):
    vals = [levels(fam, t) for t in (-1, 0, 1, 3, fam.depth)]
    for a, b in itertools.product(vals, repeat=2):
        if precedes(a, b):
            assert precedes(coarsen(a, 1), coarsen(b, 1))


def test_coarsen_finite_kind(tiny):
    zero = zero_collection(tiny)
    assert coarsen(zero, 1) == zero
    top = CoverCollection(tiny, 0)
    assert coarsen(top, 1) == top


def test_converges_constant_zero(fam):
    assert converges_to_zero([zero_collection(fam)] * 3)


def test_converges_increasing_thresholds(fam):
    seq = [levels(fam, t) for t in range(fam.depth + 1)]
    assert converges_to_zero(seq)
    trace = convergence_trace(seq)
    assert trace == [i for i in range(fam.size)]


def test_converges_stuck_threshold(fam):
    seq = [levels(fam, 0)] * 4
    assert not converges_to_zero(seq)


def test_prox_matches_oracle_exhaustive():
    grid = line_grid(0.0, 1.0, 31)
    fam31 = metric_chain_family(grid, 2.0, 4)
    for x, y in itertools.product(range(grid.n), repeat=2):
        assert indices(prox(x, y, fam31)) == naive_prox_indices(x, y, fam31)


def test_prox_matches_oracle_finite(tiny):
    for x, y in itertools.product(range(tiny.space.n), repeat=2):
        assert indices(prox(x, y, tiny)) == naive_prox_indices(x, y, tiny)


def test_prox_symmetry_exhaustive(grid, fam):
    for cov in fam.coverings:
        star = cov.point_star
        for x, y in itertools.product(range(grid.n), repeat=2):
            assert (star[x] >> y) & 1 == (star[y] >> x) & 1


def test_prox_self_is_zero(grid, fam):
    for x in range(0, grid.n, 10):
        assert prox(x, x, fam).is_zero


def test_prox_hausdorff_separation(grid, fam):
    # finest covering resolves singletons: distinct points never at distance zero
    for x, y in itertools.combinations(range(0, grid.n, 10), 2):
        assert not prox(x, y, fam).is_zero


def test_prox_grid_threshold_bruteforce(grid):
    # finest level of prox(0, 0.1) on the quarter chain with eps0=1: brute force over centers
    fam1 = metric_chain_family(grid, 1.0, 5)
    x, y = 0, 10
    expected = -1
    for i in range(6):
        r = 1.0 * 0.25**i
        if any(
            reference_distance(grid, c, x) < r and reference_distance(grid, c, y) < r
            for c in range(grid.n)
        ):
            expected = i
    got = prox(x, y, fam1)
    assert got == levels(fam1, expected)
    assert got.mask.bit_length() - 1 == expected


def test_prox_triangle_single_intermediate():
    grid = line_grid(0.0, 1.0, 30)
    fam30 = metric_chain_family(grid, 2.0, 4)
    pts = range(0, grid.n, 3)
    for x, y, z in itertools.product(pts, pts, pts):
        lhs = prox(x, y, fam30)
        rhs = coarsen(prox(x, z, fam30) & prox(z, y, fam30), 1)
        assert precedes(lhs, rhs), (x, y, z)


def test_prox_triangle_two_intermediates():
    grid = line_grid(0.0, 1.0, 16)
    fam16 = metric_chain_family(grid, 2.0, 3)
    pts = range(grid.n)
    rng = random.Random(7)
    for _ in range(300):
        x, y, z1, z2 = (rng.choice(pts) for _ in range(4))
        lhs = prox(x, y, fam16)
        rhs = coarsen(
            prox(x, z1, fam16) & prox(z1, z2, fam16) & prox(z2, y, fam16), 2
        )
        assert precedes(lhs, rhs)


def test_sequence_convergence_iff_prox_converges(grid, fam):
    x = 0
    rng = random.Random(3)
    # convergent: walk down to x and stay
    walk = [50, 30, 14, 6, 2, 1, 0, 0, 0, 0, 0, 0]
    # non-convergent: alternate between two separated points
    flip = [0, 40] * 6
    for seq in (walk, flip):
        lhs = point_sequence_converges(seq, x, fam)
        rhs = converges_to_zero([prox(p, x, fam) for p in seq])
        assert lhs == rhs
    assert point_sequence_converges(walk, x, fam)
    assert not point_sequence_converges(flip, x, fam)
    for _ in range(20):
        seq = [rng.choice(range(grid.n)) for _ in range(6)] + [x] * 4
        assert point_sequence_converges(seq, x, fam) == converges_to_zero(
            [prox(p, x, fam) for p in seq]
        )


def test_prox_to_set_membership(grid, fam):
    x = 0
    A = grid.mask_of([0, 50])
    assert prox_to_set(x, A, fam).is_zero  # x in A
    B = grid.mask_of([50])
    assert not prox_to_set(x, B, fam).is_zero


def test_prox_to_set_closure_criterion(tiny):
    # distance zero to a set exactly on its closure, cross-checked per point
    s = tiny.space
    for A in range(1, 4):
        cl = tiny.closure_mask(A)
        for x in range(s.n):
            assert prox_to_set(x, A, tiny).is_zero == bool((cl >> x) & 1)


def test_prox_to_set_closure_invariant(grid, fam):
    # prox to a set equals prox to its closure
    A = grid.mask_of(range(10, 20))
    cl = fam.closure_mask(A)
    for x in range(0, grid.n, 7):
        assert prox_to_set(x, A, fam) == prox_to_set(x, cl, fam)


def test_semi_prox_examples(grid, fam):
    A = grid.mask_of([0])
    B = grid.mask_of([0, 10])
    one = semi_prox(A, B, fam)
    # bounded by the worst point: equals prox(0.1, {0})
    assert one == prox_to_set(10, A, fam)
    assert semi_prox(B, A, fam).is_zero  # A inside B


def test_semi_prox_zero_iff_subset_of_closure(tiny):
    s = tiny.space
    for A in range(1, 4):
        for B in range(1, 4):
            lhs = semi_prox(A, B, tiny).is_zero
            rhs = B & ~tiny.closure_mask(A) == 0
            assert lhs == rhs


def test_convergent_net_closure_criterion(grid, fam):
    # for a sequence converging to x: x lies in cls(A) iff the set proximities
    # of the sequence to A converge to zero
    x = 0
    seq = [30, 12, 5, 2, 1, 0, 0, 0]
    for A in (
        grid.mask_of([0, 70]),
        grid.mask_of([40]),
        grid.mask_of(range(0, 3)),
    ):
        in_closure = bool((fam.closure_mask(A) >> x) & 1)
        traj = [semi_prox(A, 1 << p, fam) for p in seq]
        assert converges_to_zero(traj) == in_closure


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_prox_to_set_monotone(data):
    grid9 = line_grid(0.0, 1.0, 9)
    fam9 = metric_chain_family(grid9, 2.0, 2)
    a = data.draw(st.sets(st.integers(0, 8), min_size=1, max_size=9))
    extra = data.draw(st.sets(st.integers(0, 8), max_size=9))
    x = data.draw(st.integers(0, 8))
    A = grid9.mask_of(a)
    B = A | grid9.mask_of(extra)
    assert precedes(prox_to_set(x, B, fam9), prox_to_set(x, A, fam9))


@settings(max_examples=80, deadline=None)
@given(
    t1=st.integers(-1, 3),
    t2=st.integers(-1, 3),
)
def test_lattice_laws_chain(t1, t2):
    grid5 = line_grid(0.0, 1.0, 5)
    fam5 = metric_chain_family(grid5, 2.0, 3)
    a, b = levels(fam5, t1), levels(fam5, t2)
    assert indices(a & b) == indices(a) & indices(b)
    assert indices(a | b) == indices(a) | indices(b)
    # reverse inclusion: the union is closer to zero, the intersection farther
    assert precedes(a | b, a)
    assert precedes(a, a & b)


def test_sets_equal_at_resolution(grid, fam):
    A = grid.mask_of([5])
    assert sets_equal_at_resolution(A, A, fam)
    B = grid.mask_of([5, 80])
    assert not sets_equal_at_resolution(A, B, fam)
    # a coarse family cannot tell near neighbors apart
    coarse = metric_chain_family(grid, 2.0, 1)
    C = grid.mask_of([5, 6])
    assert sets_equal_at_resolution(A, C, coarse)


def test_empty_inputs_raise(grid, fam):
    from coverdyn.space import EmptyInput

    with pytest.raises(EmptyInput):
        prox_to_set(0, 0, fam)
    with pytest.raises(EmptyInput):
        semi_prox(0, 1 << 0, fam)
    with pytest.raises(EmptyInput):
        point_sequence_converges([], 0, fam)
    with pytest.raises(EmptyInput):
        convergence_trace([])


# Differential tests of the bitmask encoding against direct set computations,
# over every topology on at most three points and over small metric chains.
TOPOLOGY_FAMILIES = [
    finite_all_coverings_family(
        Space(points=tuple(Point(pid=f"p{i}", index=i) for i in range(n)), opens=opens)
    )
    for n in (1, 2, 3)
    for opens in enumerate_topologies(n)
]
# On the two larger grids some consecutive levels do not double-refine
# themselves, so two-step coarsening differs from one-step coarsening there.
CHAIN_FAMILIES = [
    metric_chain_family(line_grid(0.0, 1.0, count), eps0, depth)
    for count, eps0, depth in [(c, 0.5, 2) for c in range(5, 10)]
    + [(c, 2.0, 4) for c in range(5, 10)]
    + [(17, 2.0, 4), (33, 1.0, 3)]
]
ALL_FAMILIES = TOPOLOGY_FAMILIES + CHAIN_FAMILIES


def _all_collections(fam):
    """Every upward-hereditary collection: the unions of refinement rows."""
    found, frontier = {0}, {0}
    while frontier:
        frontier = {m | r for m in frontier for r in fam.refine_rows} - found
        found |= frontier
    return [CoverCollection(fam, m) for m in sorted(found)]


@pytest.mark.parametrize(
    "fam",
    [
        max((f for f in TOPOLOGY_FAMILIES if f.space.n == 3), key=lambda f: f.size),
        metric_chain_family(line_grid(0.0, 1.0, 13), 2.0, 3),
    ],
    ids=["discrete3", "chain13"],
)
def test_converges_to_zero_agrees_with_trace(fam):
    collections = _all_collections(fam)
    assert len(collections) > 4
    for length in (1, 2, 3):
        for seq in itertools.product(collections, repeat=length):
            want = all(k is not None for k in convergence_trace(seq))
            assert converges_to_zero(seq) == want, seq


def _collection(data, fam):
    """A drawn collection: the upward closure of drawn covering indices."""
    return CoverCollection.finite(fam, data.draw(st.sets(st.integers(0, fam.size - 1))))


def _point_set(data, fam, min_size=1):
    n = fam.space.n
    return frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=min_size)))


def _share_member(cov, a, b):
    return bool(cov.point_rows[a] & cov.point_rows[b])


@pytest.mark.parametrize("fam", TOPOLOGY_FAMILIES, ids=lambda f: f"opens{f.space.opens}")
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_finite_upward_closure_matches_refinement(fam, data):
    S = data.draw(st.sets(st.integers(0, fam.size - 1)))
    covs = fam.coverings
    expected = {
        j for j in range(fam.size) if any(row_forms.refines(covs[i], covs[j]) for i in S)
    }
    assert indices(CoverCollection.finite(fam, S)) == expected


# On the 101-point grid chain most level pairs pass, so the row form's
# passing path runs on many members; the small families mostly fail early.
GRID101_CHAIN = metric_chain_family(line_grid(0.0, 1.0, 101), 2.0, 6)


@pytest.mark.parametrize(
    "fam", ALL_FAMILIES + [GRID101_CHAIN], ids=family_id
)
def test_double_refines_matches_pair_set_oracle(fam):
    for V, U in itertools.product(fam.coverings, repeat=2):
        assert double_refines(V, U) == row_forms.pair_set_double_refines(V, U), (V, U)


# Chains of every construction path: the metric chains of these tests, the
# decay_grid chains at two sizes, the pointwise chains of the function-space
# built-ins, and a 5-point chain whose deep levels repeat, so that entries
# above the diagonal are true.
CHAIN_ROW_CASES = {
    "test-metric-chains": lambda: CHAIN_FAMILIES + [
        GRID101_CHAIN,
        metric_chain_family(line_grid(0.0, 1.0, 101), 2.0, 5),
        metric_chain_family(line_grid(0.0, 1.0, 101), 1.0, 5),
        metric_chain_family(line_grid(0.0, 1.0, 31), 2.0, 4),
        metric_chain_family(line_grid(0.0, 1.0, 21), 2.0, 4),
        metric_chain_family(line_grid(0.0, 1.0, 41), 0.3, 1),
    ],
    "decay_grid-101": lambda: [get_scenario("decay_grid", count=101).family],
    "decay_grid-201": lambda: [get_scenario("decay_grid", count=201).family],
    "iterated_contractions": lambda: [get_scenario("iterated_contractions").family],
    "composition": lambda: [get_scenario("composition").family],
    "exp_decay": lambda: [get_scenario("exp_decay").family],
    "repeated-deep-levels": lambda: [metric_chain_family(line_grid(0.0, 1.0, 5), 2.0, 5)],
}


@pytest.mark.parametrize("case", list(CHAIN_ROW_CASES))
def test_chain_rows_match_direct_rows(case):
    for fam in CHAIN_ROW_CASES[case]():
        assert all((fam.double_refine_rows[i] >> (i - 1)) & 1 for i in range(1, fam.size))
        assert fam.refine_rows == row_forms.relation_rows(fam.coverings, row_forms.refines)
        assert fam.double_refine_rows == row_forms.relation_rows(
            fam.coverings, row_forms.pair_set_double_refines
        )
        if case == "repeated-deep-levels":
            upper = [row >> (i + 1) for i, row in enumerate(fam.double_refine_rows)]
            assert any(upper)


@functools.cache
def reach_pairs(fam):
    """Oracle: the pairs (i, j) joined by a one- and by a two-step
    double-refinement chain inside the family, from the reference row form."""
    covs = fam.coverings
    one = {
        (i, j)
        for i, j in itertools.product(range(fam.size), repeat=2)
        if row_forms.double_refines(covs[i], covs[j])
    }
    succ = {i: [j for a, j in one if a == i] for i in range(fam.size)}
    two = {(i, k) for i, j in one for k in succ[j]}
    return {1: one, 2: two}


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=family_id)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_coarsen_matches_reach_matrix(fam, data):
    E = _collection(data, fam)
    for n in (1, 2):
        reach = reach_pairs(fam)[n]
        expected = {j for j in range(fam.size) if any((i, j) in reach for i in indices(E))}
        assert indices(coarsen(E, n)) == expected


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=family_id)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_semi_prox_matches_oracle(fam, data):
    A, B = _point_set(data, fam), _point_set(data, fam)
    expected = frozenset(range(fam.size))
    for b in B:
        expected &= frozenset().union(*(naive_prox_indices(b, a, fam) for a in A))
    mask_of = fam.space.mask_of
    assert indices(semi_prox(mask_of(A), mask_of(B), fam)) == expected


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=family_id)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_is_bounded_matches_oracle(fam, data):
    Y = _point_set(data, fam)
    expected = any(
        all(_share_member(cov, a, b) for a in Y for b in Y) for cov in fam.coverings
    )
    assert is_bounded(fam.space.mask_of(Y), fam) == expected


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=family_id)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_is_cauchy_matches_oracle(fam, data):
    seq = data.draw(st.lists(st.integers(0, fam.space.n - 1), min_size=1, max_size=8))
    min_tail = data.draw(st.integers(0, 4))
    last_start = max(len(seq) - max(min_tail, 1), 0)
    expected = all(
        any(
            all(_share_member(cov, a, b) for a in seq[k0:] for b in seq[k0:])
            for k0 in range(last_start + 1)
        )
        for cov in fam.coverings
    )
    assert is_cauchy(seq, fam, min_tail=min_tail) == expected


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=family_id)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_point_sequence_converges_matches_reference(fam, data):
    n = fam.space.n
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    x = data.draw(st.integers(0, n - 1))
    want = reference_point_sequence_converges(seq, x, fam)
    assert point_sequence_converges(seq, x, fam) == want


@pytest.mark.parametrize("fam", ALL_FAMILIES, ids=family_id)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_resolution_comparisons_match_oracle(fam, data):
    A, B = _point_set(data, fam, min_size=0), _point_set(data, fam, min_size=0)

    def inside(S, T):
        # every point of S is star-close to T at every covering
        every = frozenset(range(fam.size))
        return all(
            frozenset().union(*(naive_prox_indices(s, t, fam) for t in T)) == every
            for s in S
        )

    a, b = fam.space.mask_of(A), fam.space.mask_of(B)
    assert subset_at_resolution(a, b, fam) == inside(A, B)
    assert sets_equal_at_resolution(a, b, fam) == (inside(A, B) and inside(B, A))


def _certification(certify, coverings):
    """The DegenerateChain message of certifying these coverings as a chain, or None."""
    try:
        certify(coverings)
    except DegenerateChain as exc:
        return str(exc)
    return None


# Every all-coverings family on at most three points, the metric test chains,
# the 101- and 201-point decay_grid chains, and the pointwise chains of the
# function-space built-ins: their levels share member sets, and some levels
# double-refine themselves while the point stars of others fit no member of
# their own level.
KERNEL_CASES = ALL_FAMILIES + [
    GRID101_CHAIN,
    get_scenario("decay_grid", count=101).family,
    get_scenario("decay_grid", count=201).family,
    get_scenario("composition").family,
    get_scenario("iterated_contractions").family,
    get_scenario("exp_decay").family,
]


@pytest.mark.parametrize("fam", KERNEL_CASES, ids=family_id)
def test_kernel_matches_row_forms(fam):
    covs = fam.coverings
    for cov in covs:
        assert cov.point_rows == row_forms.point_rows(cov)
        assert cov.point_star == row_forms.point_star(cov)
    assert fam.refine_rows == row_forms.relation_rows(covs, row_forms.refines)
    assert fam.double_refine_rows == row_forms.relation_rows(covs, row_forms.double_refines)
    # the coverings listed as a chain, in both orders: most finite listings
    # fail certification, at the level the pairwise reference names
    for order in (covs, covs[::-1]):
        assert _certification(
            lambda c: chain_family(c[0].space, c), order
        ) == _certification(row_forms.certify_chain, order)
