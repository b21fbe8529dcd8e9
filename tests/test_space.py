import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverdyn import space
from coverdyn.checks import nested_chain_suite
from coverdyn.covering import finite_all_coverings_family, metric_chain_family
from coverdyn.space import (
    DuplicatePoint,
    EmptyInput,
    MissingEmptyOrFull,
    NonFiniteValue,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotMetricSpace,
    ball_rows,
    bool_product,
    build_finite_topology,
    build_metric_space,
    enumerate_topologies,
    line_grid,
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


def walk_transpose(masks, width):
    return tuple(sum(((m >> j) & 1) << i for i, m in enumerate(masks)) for j in range(width))


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


# two independent draws of operands for every shape; the seeds are the
# case IDs this test has always carried
@pytest.mark.parametrize("seed", [1 << 18, 64])
@pytest.mark.parametrize("width", WIDTHS)
def test_bool_products_match_bit_walk(width, seed):
    rng = random.Random(seed + width)
    for r, c in [*itertools.product((0, 1, 8, 9, 65), (0, 1, 7, 64)), (3, 5)]:
        rows, cols = _masks(rng, r, width), _masks(rng, c, width)
        assert bool_product(rows, cols, width) == walk_product(rows, cols), (r, c)


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
    assert bool_product([], [1, 2], 2) == ()
    assert bool_product([3, 1], [], 2) == (0, 0)
    assert bool_product([0, 0], [0], 0) == (0, 0)


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
