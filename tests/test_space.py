import functools
import importlib.util
import itertools
import math
import operator
import pathlib
import random
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverdyn import space
from coverdyn.checks import nested_chain_suite
from coverdyn.covering import Covering, finite_all_coverings_family, metric_chain_family
from coverdyn.space import (
    DuplicatePoint,
    EmptyInput,
    MissingEmptyOrFull,
    NonFiniteValue,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotMetricSpace,
    ball_rows,
    build_finite_topology,
    build_metric_space,
    enumerate_topologies,
    line_grid,
    run_spans,
    run_stars,
    run_transpose,
    transpose_masks,
    union_rows,
)

import row_forms
from reference import (
    metric_axiom_violation,
    reference_distance,
    reference_point_balls,
    triangle_rtol,
    walk_product,
    walk_transpose,
)


def kernel_distances(s):
    """The distance table of a space as the ball kernel measures it."""
    rows = np.array([p.coords for p in s.points])
    return space._pairwise_distances(rows, rows)


def balls(s, radius):
    """Every point's open ball of `radius`, in index order, from `ball_rows`."""
    coords = [p.coords for p in s.points]
    return ball_rows(coords, coords, [radius])[0]


def test_three_point_line():
    s = build_metric_space([[0.0], [1.0], [2.0]])
    assert s.n == 3
    assert kernel_distances(s)[0, 2] == 2.0
    assert reference_distance(s, 0, 2) == 2.0


def test_grid_101_points():
    s = line_grid(0.0, 1.0, 101)
    assert s.n == 101
    dist = kernel_distances(s)
    assert dist[dist > 0].min() == pytest.approx(0.01)
    assert dist.max() == pytest.approx(1.0)
    # the scaled euclidean norm is |x - y| exactly in one dimension
    xs = np.array([p.coords[0] for p in s.points])
    assert np.array_equal(dist, np.abs(xs[:, None] - xs[None, :]))
    assert all(
        dist[i, j] == reference_distance(s, i, j) for i in range(0, 101, 7) for j in range(101)
    )


def test_a_metric_space_stores_only_its_coordinates():
    # the coordinates are the one stored geometry: no n x n distance table
    # is kept, so a 3201-point grid retains about a megabyte (a dense
    # float64 table alone is 82 MB)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        s = line_grid(0.0, 1.0, 3201)
        retained = sum(
            d.size_diff for d in tracemalloc.take_snapshot().compare_to(before, "filename")
        )
    finally:
        tracemalloc.stop()
    assert s.n == 3201
    assert retained < 8 * 2**20, f"{retained / 2**20:.1f} MB retained"
    assert not [k for k, v in vars(s).items() if isinstance(v, np.ndarray)]
    assert not any(isinstance(v, np.ndarray) for p in s.points for v in vars(p).values())


def test_the_distance_kernel_holds_three_tables_at_most():
    # the difference, its sup scale and the sum, into which the root and
    # the product with the scale are written: 3 x 8 bytes per pair in 1-D
    x = np.linspace(0.0, 1.0, 801)[:, None]
    tracemalloc.start()
    try:
        space._pairwise_distances(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * 801**2, f"{peak / 801**2:.1f} bytes per pair"


def test_duplicate_coordinates_rejected():
    with pytest.raises(DuplicatePoint):
        build_metric_space([[0.0, 0.0], [0.0, 0.0]])


def test_nan_coordinate_rejected_by_name():
    # a NaN distance used to read as a violation of zero-on-diagonal
    with pytest.raises(NonFiniteValue, match=r"point \(nan\) has a non-finite coordinate"):
        build_metric_space([[0], [float("nan")]])


def test_infinite_distance_rejected_by_name():
    # 1e308 - (-1e308) overflows: this space used to load with an infinite
    # distance; the first pair in row-major order is named
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            NonFiniteValue,
            match=r"^the distance from point \(1e\+308\) to point \(-1e\+308\) is not finite$",
        ):
            build_metric_space([[0], [1e308], [-1e308]])
        # every span is finite, but the norm of (1.7e308, 1.7e308) is not
        with pytest.raises(
            NonFiniteValue, match=r"^the distance from point b to point c is not finite$"
        ):
            build_metric_space([[1.7e308, 0], [0, 0], [1.7e308, 1.7e308]], ids="abc")
        # a finite distance whose square overflows still loads: the euclidean
        # form used to reject this space as non-finite
        far = kernel_distances(build_metric_space([[0], [1e200]]))
        assert far[0, 1] == far[1, 0] == 1e200
        # in 2-D the summed squares overflow too
        far = kernel_distances(build_metric_space([[0, 0], [1e200, 1e200]]))
        assert far[0, 1] == far[1, 0]
        assert math.isclose(far[0, 1], math.sqrt(2) * 1e200, rel_tol=1e-15)
        # a norm just inside the largest double loads
        assert build_metric_space([[0, 0], [1.2e308, 1.2e308]]).n == 2


def test_overflowing_grid_rejected_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="non-finite coordinate"):
            line_grid(-1e308, 1e308, 5)


def test_empty_rejected():
    with pytest.raises(EmptyInput):
        build_metric_space([])


def test_bad_distance_matrix_symmetry():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert metric_axiom_violation(d, ["a", "b"], triangle_rtol(1)) == ("symmetry", ("a", "b"))


def test_bad_distance_matrix_triangle():
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    assert metric_axiom_violation(d, ["a", "b", "c"], triangle_rtol(1)) == (
        "triangle",
        ("a", "c", "b"),
    )


@st.composite
def coordinate_sets(draw):
    """Distinct points in 1-3 dimensions at magnitudes from 1e-6 to 1e12:
    free points, or near-collinear ones, where rounding of the distances
    comes closest to breaking the triangle law."""
    dim = draw(st.integers(1, 3))
    magnitude = 10.0 ** draw(st.integers(-6, 12))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(*[unit] * dim), min_size=1, max_size=12))
        rows = [[magnitude * x for x in row] for row in rows]
    else:
        base = [magnitude * x for x in draw(st.tuples(*[unit] * dim))]
        step = [magnitude * x / 7 for x in draw(st.tuples(*[unit] * dim))]
        ts = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=24))
        rows = [[b + t * v for b, v in zip(base, step)] for t in ts]
    return dim, list(dict.fromkeys(map(tuple, rows)))


@settings(max_examples=150, deadline=None)
@given(case=coordinate_sets())
# distinct points whose 10-digit ids coincide
@example(case=(1, [(1.0,), (1.0000000000001428,)]))
def test_built_distances_satisfy_the_metric_axioms(case):
    # build_metric_space checks no axiom: the ball kernel's norm must make
    # every one hold on the rows of a space that loads
    dim, rows = case
    s = build_metric_space(rows)
    arr = np.array([p.coords for p in s.points])
    dist = space._pairwise_distances(arr, arr)
    assert np.array_equal(dist, dist.T)
    assert not np.diag(dist).any()
    assert (dist[~np.eye(s.n, dtype=bool)] > 0).all()
    assert metric_axiom_violation(dist, [p.pid for p in s.points], triangle_rtol(dim)) is None


def test_valid_spaces_at_large_coordinates_load():
    # an absolute triangle slack of 1e-12 used to reject both spaces
    assert line_grid(0.0, 1e6, 61).n == 61
    assert build_metric_space([[x * 1e4 / 7, 0] for x in range(60)]).n == 60


def test_points_that_share_ten_digits_get_exact_ids():
    s = line_grid(1e6, 1e6 + 1e-3, 11)
    ids = [p.pid for p in s.points]
    assert len(set(ids)) == 11
    assert ids[0] == "(1000000.0)"
    # every id reads back as its coordinate
    assert all(float(p.pid[1:-1]) == p.coords[0] for p in s.points)


def test_equal_coordinates_still_raise():
    with pytest.raises(DuplicatePoint, match=r"duplicate point id '\(1\)'"):
        build_metric_space([[1.0], [1.0000000000001428], [1.0]])


@pytest.mark.parametrize(
    "rows, pair",
    [
        # rows A B B A: the first equal pair in row-major order is (0, 3)
        ([[0.0, 1.0], [2.0, 3.0], [2.0, 3.0], [0.0, 1.0]], "a and d"),
        ([[5.0], [1.0], [2.0], [1.0], [5.0]], "a and e"),
        ([[1.0], [2.0], [3.0], [2.0]], "b and d"),
        ([[1.0], [1.0], [2.0], [2.0]], "a and b"),
        ([[1.0], [2.0], [1.0], [1.0]], "a and c"),
        # a zero difference is a zero distance: 0.0 and -0.0 coincide
        ([[0.0, 1.0], [-0.0, 1.0]], "a and b"),
    ],
)
def test_indistinguishable_points_named_by_the_first_pair(rows, pair):
    with pytest.raises(DuplicatePoint, match=rf"^points {pair} are indistinguishable$"):
        build_metric_space(rows, ids="abcde"[: len(rows)])


def test_ball_basic():
    s = build_metric_space([[0.0], [1.0], [2.0]])
    assert s.pids(balls(s, 1.5)[0]) == ["(0)", "(1)"]
    # radius above the diameter captures everything
    assert balls(s, 10.0)[0] == s.full_mask
    # radius below the smallest positive distance captures only the center
    assert balls(s, 0.5)[0] == s.mask_of((0,))


def test_ball_is_open_strict():
    s = build_metric_space([[0.0], [1.0], [2.0]])
    assert s.pids(balls(s, 1.0)[0]) == ["(0)"]


def test_ball_rows_measure_every_radius_in_one_call():
    # one list of balls per radius, each ball centered at one center row
    coords = [(0.0,), (1.0,), (2.0,), (4.0,)]
    assert ball_rows(coords, [(1.0,), (4.0,)], [0.5, 1.5, 3.5]) == [
        (0b0010, 0b1000),
        (0b0111, 0b1000),
        (0b1111, 0b1110),
    ]
    assert ball_rows(coords, coords, []) == []


def test_pids_are_sorted_by_id_not_by_index():
    s = build_metric_space([[0.0], [1.0], [2.0]], ids=["c", "a", "b"])
    assert s.pids(s.full_mask) == ["a", "b", "c"]
    assert s.pids(0b101) == ["b", "c"]
    assert s.pids(0) == []


@settings(max_examples=60)
@given(
    r1=st.floats(min_value=0.001, max_value=3.0),
    r2=st.floats(min_value=0.001, max_value=3.0),
    center=st.integers(min_value=0, max_value=20),
)
def test_ball_monotone_in_radius(r1, r2, center):
    s = line_grid(0.0, 1.0, 21)
    lo, hi = sorted([r1, r2])
    small, large = ball_rows([p.coords for p in s.points], [s.points[center].coords], [lo, hi])
    assert small[0] & ~large[0] == 0


def test_sierpinski_style_topology():
    s = build_finite_topology(["a", "b"], [[], ["a"], ["a", "b"]])
    assert s.opens == (0, 1, 3)


def test_discrete_topology_three_points():
    pts = ["a", "b", "c"]
    opens = [list(c) for r in range(4) for c in itertools.combinations(pts, r)]
    s = build_finite_topology(pts, opens)
    assert len(s.opens) == 8


def test_missing_full_set():
    with pytest.raises(MissingEmptyOrFull):
        build_finite_topology(["a", "b"], [[], ["a"]])


def test_not_closed_under_union():
    with pytest.raises(NotClosedUnderUnion):
        build_finite_topology(["a", "b", "c"], [[], ["a"], ["b"], ["a", "b", "c"]])


def test_not_closed_under_intersection():
    with pytest.raises(NotClosedUnderIntersection):
        build_finite_topology(
            ["a", "b", "c"], [[], ["a", "b"], ["b", "c"], ["a", "b", "c"]]
        )


def _closure_brute(masks: set[int], full: int) -> set[int]:
    out = set(masks) | {0, full}
    changed = True
    while changed:
        changed = False
        for a in list(out):
            for b in list(out):
                for c in (a | b, a & b):
                    if c not in out:
                        out.add(c)
                        changed = True
    return out


def test_validation_matches_bruteforce_closure():
    # families accepted by the validator are exactly the union/intersection-closed ones
    pts = ["a", "b", "c"]
    full = 7
    proper = [m for m in range(8) if m not in (0, full)]
    ids = lambda m: [pts[i] for i in range(3) if (m >> i) & 1]
    accepted = 0
    for r in range(len(proper) + 1):
        for combo in itertools.combinations(proper, r):
            fam = set(combo) | {0, full}
            is_closed = _closure_brute(fam, full) == fam
            try:
                build_finite_topology(pts, [ids(m) for m in fam])
                ok = True
            except (NotClosedUnderUnion, NotClosedUnderIntersection):
                ok = False
            assert ok == is_closed
            accepted += ok
    assert accepted == 29  # labeled topologies on three points


def test_enumerate_topologies_counts():
    assert len(enumerate_topologies(1)) == 1
    assert len(enumerate_topologies(2)) == 4
    assert len(enumerate_topologies(3)) == 29


def test_topology_closure():
    s = build_finite_topology(["a", "b"], [[], ["a"], ["a", "b"]])
    a, b = range(s.n)
    # the only open containing b is the whole space, which meets {a}
    assert row_forms.topology_closure(s, s.mask_of([a])) == s.full_mask
    assert row_forms.topology_closure(s, s.mask_of([b])) == s.mask_of([b])


# Bit-matrix helpers against bit-walk references, at byte boundaries.
WIDTHS = (1, 7, 8, 9, 63, 64, 65)


def walk_union(table, mask):
    out = 0
    for k, row in enumerate(table):
        if (mask >> k) & 1:
            out |= row
    return out


def _masks(rng, count, width):
    # the full mask first: it sets the top bit of a partial last byte
    return ([(1 << width) - 1] + [rng.getrandbits(width) for _ in range(count - 1)])[:count]


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 65])
def test_transpose_masks_matches_bit_walk(width, count):
    masks = _masks(random.Random(100 * width + count), count, width)
    assert transpose_masks(masks, width) == walk_transpose(masks, width)
    assert transpose_masks(transpose_masks(masks, width), count) == tuple(masks)


# two independent draws of coverings for every point count; the seeds are
# the case IDs this test has always carried
@pytest.mark.parametrize("seed", [1 << 18, 64])
@pytest.mark.parametrize("width", WIDTHS)
def test_bool_products_match_bit_walk(width, seed):
    # a covering's point stars are the boolean product of its point rows
    # with themselves, which `Covering.point_star` takes through `union_rows`.
    # The general path is forced, so that coverings of runs, a one-point
    # space and members with an empty trace on the sample take it too
    rng = random.Random(seed + width)
    sample = line_grid(0.0, 1.0, width)
    for count in (1, 2, 7, 8, 9, 65):
        members = {0, *(rng.getrandbits(width) & rng.getrandbits(width) for _ in range(count))}
        covered = functools.reduce(operator.or_, members)
        members |= {1 << x for x in range(width) if not covered >> x & 1}
        c = Covering(space=sample, members=tuple(sorted(members)), label="")
        c.__dict__["_spans"] = None
        rows = walk_transpose(c.members, width)
        assert c.point_rows == rows
        assert c.point_star == walk_product(rows, rows), count


@pytest.mark.parametrize("width", (0, *WIDTHS))
@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 65])
def test_union_rows_matches_bit_walk(width, size):
    rng = random.Random(100 * width + size)
    table = _masks(rng, size, width)
    masks = [0, (1 << size) - 1, *(rng.getrandbits(size) for _ in range(20))]
    # each single row, the highest one included
    masks += [1 << k for k in range(size)]
    for mask in masks:
        assert union_rows(table, mask) == walk_union(table, mask), mask


def test_bit_matrix_helpers_on_empty_input():
    assert transpose_masks([], 9) == (0,) * 9
    assert transpose_masks([0, 0], 0) == ()
    assert union_rows([], 0) == 0


BALL_GRIDS = [line_grid(0.0, 1.0, c) for c in (5, 6, 7, 8, 9, 17, 21, 31, 33, 41, 63, 64, 65, 101)]
BALL_RADII = sorted(
    {e * q**i for e in (2.0, 1.0, 0.5, 0.3) for q in (0.25, 0.8) for i in range(7)}
)


@pytest.mark.parametrize("grid", BALL_GRIDS, ids=lambda g: f"grid{g.n}")
def test_ball_mask_matches_the_bit_loop(grid):
    coords = [p.coords for p in grid.points]
    for r, got in zip(BALL_RADII, ball_rows(coords, coords, BALL_RADII)):
        want = reference_point_balls(grid, r)
        for p in range(grid.n):
            assert got[p] == want[p], (p, r)


# multiples of 1/8 in [0, 4]: every difference and square is exact
EIGHTHS = st.integers(0, 32).map(lambda k: k / 8)


@st.composite
def spaces_and_radii(draw):
    """A space and radii where the plain-Python distance decides every ball:
    1-D points at any magnitude with radii read off their distances, so
    that some points lie exactly at the radius; 2-D points in eighths with
    radii at multiples of 1/8, ties included; or 3-D points in eighths with
    radii at odd multiples of 1/16, which no distance of the space equals."""
    dim = draw(st.integers(1, 3))
    if dim == 1:
        rows = draw(coordinate_sets().filter(lambda case: case[0] == 1))[1]
    else:
        rows = draw(st.lists(st.tuples(*[EIGHTHS] * dim), min_size=1, max_size=12, unique=True))
    s = build_metric_space(rows)
    if dim == 1:
        grid = sorted(
            {reference_distance(s, i, j) for i in range(s.n) for j in range(i)} or {1.0}
        )
    elif dim == 2:
        grid = [k / 8 for k in range(1, 48)]
    else:
        grid = [(2 * k + 1) / 16 for k in range(48)]
    return s, draw(st.lists(st.sampled_from(grid), min_size=1, max_size=4))


@settings(max_examples=100, deadline=None)
@given(spaces_and_radii())
def test_ball_masks_match_the_per_point_loop(case):
    s, radii = case
    coords = [p.coords for p in s.points]
    for r, got in zip(radii, ball_rows(coords, coords, radii)):
        assert got == reference_point_balls(s, r), r


def test_ball_masks_check_the_radius_and_the_metric():
    # ball_rows measures any radius; the callers that build balls of a
    # space check the radius and that the space is metric
    s = line_grid(0.0, 1.0, 3)
    for r in (0.0, -1.0):
        with pytest.raises(ValueError):
            metric_chain_family(s, r, 2)
        assert balls(s, r) == (0, 0, 0)
    t = build_finite_topology(["a", "b"], [[], ["a"], ["a", "b"]])
    with pytest.raises(NotMetricSpace):
        metric_chain_family(t, 1.0, 2)
    with pytest.raises(NotMetricSpace):
        nested_chain_suite(finite_all_coverings_family(t), rng=random.Random(0))


# ---------------------------------------------------------------------------
# the interval fast paths: balls of increasing 1-D coordinates, and the
# tables of a covering whose members are runs of ones
# ---------------------------------------------------------------------------


def dense_balls(coords, centers, radii, kernel=space):
    """The balls as the general path measures them: one distance table and
    one `<` per radius."""
    rows = np.asarray(coords, dtype=float)
    cs = np.asarray(centers, dtype=float).reshape(-1, rows.shape[1])
    dist = kernel._pairwise_distances(cs, rows)
    return [kernel._pack(dist < r) for r in radii]


def increasing_grids():
    """Increasing 1-D grids with inexact points (shift 0.1, step 1e-3) and
    exact ones (shift 7.25, step 1e6), with centers on and off the grid and
    radii at multiples of the step, where ties round either way."""
    rng = random.Random(41)
    for shift, step, n in itertools.product((0.0, 7.25, 0.1, -3.3), (1e-3, 0.1, 1e6, 1 / 3), (1, 2, 9, 64, 101)):
        xs = [shift + step * k for k in range(n)]
        if len(set(xs)) < n:  # 1e-3 steps vanish next to 1e6-scale shifts
            continue
        centers = xs + [shift + step * rng.uniform(-2, n + 1) for _ in range(5)]
        radii = [k * step / 2 for k in range(8)] + [3 * step, n * step, rng.uniform(0, n) * step]
        yield [[x] for x in xs], [[c] for c in centers], radii


def interval_balls_agree(kernel=space) -> bool:
    """Whether `kernel.ball_rows` equals the dense form on every grid."""
    return all(
        kernel.ball_rows(coords, centers, radii) == dense_balls(coords, centers, radii, kernel)
        for coords, centers, radii in increasing_grids()
    )


def test_interval_balls_match_the_distance_table(monkeypatch):
    cases = list(increasing_grids())
    want = [dense_balls(*case) for case in cases]

    def table(a, b):
        raise AssertionError("increasing 1-D coordinates took the distance table")

    monkeypatch.setattr(space, "_pairwise_distances", table)
    for case, expected in zip(cases, want):
        assert ball_rows(*case) == expected, case[2]


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40, unique=True),
    centers=st.lists(st.floats(-2e6, 2e6, allow_nan=False), max_size=6),
    radii=st.lists(st.floats(0.0, 3e6, allow_nan=False), min_size=1, max_size=4),
)
def test_interval_balls_match_the_distance_table_on_any_sorted_grid(xs, centers, radii):
    # the radii also land on the gaps: each difference is a tie candidate
    xs = sorted(set(x + 0.0 for x in xs))
    coords = [[x] for x in xs]
    radii = radii + [abs(xs[-1] - xs[0]), abs(xs[0] - 0.1)]
    assert ball_rows(coords, [[c] for c in centers] + coords, radii) == dense_balls(
        coords, [[c] for c in centers] + coords, radii
    )


@pytest.mark.parametrize("order", ["decreasing", "shuffled", "repeated", "2-D"])
def test_other_coordinates_keep_the_distance_table(monkeypatch, order):
    xs = [0.1 + 1e-3 * k for k in range(33)]
    coords = {
        "decreasing": [[x] for x in reversed(xs)],
        "shuffled": [[x] for x in random.Random(7).sample(xs, len(xs))],
        # equal neighbours are not strictly increasing
        "repeated": [[x] for x in sorted(xs + xs[:3])],
        "2-D": [[x, 2 * x] for x in xs],
    }[order]
    radii = [k * 1e-3 for k in range(5)]
    want = dense_balls(coords, coords, radii)
    calls = []
    real = space._pairwise_distances

    def table(a, b):
        calls.append(a.shape)
        return real(a, b)

    monkeypatch.setattr(space, "_pairwise_distances", table)
    assert ball_rows(coords, coords, radii) == want
    assert calls == [(len(coords), len(coords[0]))]


MUTANTS = {
    # each end settles one index short when its guess comes from below or above
    "down-probe": ("& holds(j - 1)", "& holds(j - 2)"),
    "up-probe": ("& ~holds(j)", "& ~holds(j + 1)"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_an_off_by_one_fix_up_fails_the_ball_check(tmp_path, monkeypatch, name):
    # the guess is wrong in both directions on these grids, so a fix-up
    # that probes one index off must change some ball
    assert interval_balls_agree()
    old, new = MUTANTS[name]
    source = pathlib.Path(space.__file__).read_text(encoding="utf-8")
    assert source.count(old) == 1, old
    path = tmp_path / "space_mutant.py"
    path.write_text(source.replace(old, new), encoding="utf-8")
    spec = importlib.util.spec_from_file_location("space_mutant", path)
    mutant = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "space_mutant", mutant)
    spec.loader.exec_module(mutant)
    try:
        assert not interval_balls_agree(mutant)
    except IndexError:  # a probe below index 0 of a one-point grid
        pass


def random_runs(rng, n):
    """Runs of ones that cover [0, n), as masks: one-point runs, runs that
    share a start or an end, nested and crossing runs, so no chain."""
    spans = set()
    for _ in range(rng.randint(1, 2 * n)):
        start = rng.randrange(n)
        shape = rng.random()
        if shape < 0.25:
            end = start + 1
        elif shape < 0.5 and spans:
            start, end = rng.choice(sorted(spans))
            start = rng.randrange(start, end) if rng.random() < 0.5 else start
            end = max(end, start + 1)
        else:
            end = rng.randint(start + 1, n)
        spans.add((start, end))
    covered = 0
    for start, end in spans:
        covered |= (1 << end) - (1 << start)
    spans |= {(x, x + 1) for x in range(n) if not (covered >> x) & 1}
    return [(1 << end) - (1 << start) for start, end in spans]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 13, 64, 65, 100])
def test_run_tables_match_the_bit_walks(n):
    rng = random.Random(n)
    for _ in range(12):
        masks = sorted(random_runs(rng, n), key=lambda m: rng.random())
        spans = run_spans(masks)
        assert [(1 << e) - (1 << s) for s, e in spans] == masks
        rows = run_transpose(spans, n)
        assert rows == walk_transpose(masks, n) == transpose_masks(masks, n)
        assert run_stars(spans, n) == walk_product(rows, rows)


def test_run_spans_reject_a_mask_with_a_gap():
    assert run_spans([0b1, 0b110, 0b1111]) == ((0, 1), (1, 3), (0, 4))
    assert run_spans([0b111, 0b101]) is None
    assert run_spans([]) == ()
