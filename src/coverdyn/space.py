"""Finite discretized phase spaces: metric point samples and explicit finite topologies.

A Space is a finite set of points carrying either coordinates, whose
euclidean norm distances make it a metric space, or a validated finite
topology, as a list of open sets. The coordinates in `Space.points` are the
only stored geometry of a metric space: `ball_rows` measures balls from them,
and nothing keeps a distance table; on a line grid no ball needs one, since
each is an index interval. A metric space checks its input (finite
coordinates and distances, distinct ids and points); the metric axioms hold
by construction, see `_pairwise_distances`.
Every point, in every signature of the package, is its index in
`Space.points`, and every point set is an int mask: bit i is the point with
index i. `Point` is the id and coordinate record behind an index;
`Space.index_of` finds the index of an id, `Space.mask_of` builds a mask from
indices, and `Space.pids` reads one back as the sorted point ids.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


class CoverdynError(Exception):
    """Root of every coverdyn exception; the CLI reports one as a usage or config error."""


class SpaceError(CoverdynError):
    """Base class for space construction and query errors."""


class EmptyInput(SpaceError):
    """An operation that requires a nonempty point set got an empty one."""


class DuplicatePoint(SpaceError):
    """Two points coincide (same coordinates or same id)."""


class NonFiniteValue(SpaceError):
    """A coordinate or a distance is infinite or NaN."""


class NotMetricSpace(SpaceError):
    """A metric-only operation was applied to a finite-topology space."""


class MissingEmptyOrFull(SpaceError):
    """A finite topology must contain the empty set and the full point set."""


class NotClosedUnderUnion(SpaceError):
    def __init__(self, a: frozenset, b: frozenset):
        self.witness = (a, b)
        super().__init__(f"opens not closed under union: {sorted(a)} | {sorted(b)}")


class NotClosedUnderIntersection(SpaceError):
    def __init__(self, a: frozenset, b: frozenset):
        self.witness = (a, b)
        super().__init__(f"opens not closed under intersection: {sorted(a)} & {sorted(b)}")


@dataclass(frozen=True)
class Point:
    """A sample point: opaque id, index within its space, optional coordinates."""

    pid: str
    index: int
    coords: Optional[tuple[float, ...]] = None


def _fmt_coords(coords: Sequence[float], exact: bool = False) -> str:
    return "(" + ",".join(repr(float(c)) if exact else f"{c:.10g}" for c in coords) + ")"


def _default_ids(rows: np.ndarray) -> list[str]:
    """Point ids from coordinates: 10 significant digits when those tell
    every row apart, else the shortest round-trip form of each float, which
    tells distinct coordinates apart. Equal rows keep their equal 10-digit
    ids, which `build_metric_space` rejects."""
    ids = [_fmt_coords(row) for row in rows]
    if len(set(ids)) != len(ids):
        exact = [_fmt_coords(row, exact=True) for row in rows]
        if len(set(exact)) == len(exact):
            return exact
    return ids


@dataclass(frozen=True, eq=False)
class Space:
    """A finite point set with either metric or finite-topology geometry."""

    points: tuple[Point, ...]
    opens: Optional[tuple[int, ...]] = None

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def is_metric(self) -> bool:
        return self.opens is None

    def require_metric(self) -> None:
        if not self.is_metric:
            raise NotMetricSpace("operation requires a metric space")

    def mask_of(self, indices: Iterable[int]) -> int:
        mask = 0
        for i in indices:
            mask |= 1 << i
        return mask

    def pids(self, mask: int) -> list[str]:
        """The ids of the points in `mask`, sorted."""
        return sorted(self.points[i].pid for i in iter_bits(mask))

    def index_of(self, pid: str) -> int:
        for i, p in enumerate(self.points):
            if p.pid == pid:
                return i
        raise KeyError(pid)


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Bit matrices. The kernel keeps one set encoding, the int mask; the helpers
# below take and return masks and go through numpy only inside. Bit i of a
# mask is column i of its row (little bit order within each byte). There is
# one composition, `union_rows`: a mask picks rows of a table and ORs them.
# A table composes with a table row by row through it, as a point star is
# the union of the members through the point's row. There is one transpose,
# `transpose_masks`, a numpy unpack and pack: a pure-int transpose cost the
# axiom battery about 8 % of its ops. Where every mask of a table is a run
# of ones, an index interval [s, e), `run_spans` reads the intervals off
# once, and `run_transpose` and `run_stars` give the transpose and the point
# stars in O(n + m) steps on n columns and m runs, with no n x m array;
# through `union_rows` those stars cost a 201-point grid report 28 % of its
# ops.


def union_rows(table: Sequence[int], mask: int) -> int:
    """The OR of table[k] over the bits k of `mask`: a star from point stars,
    an orbit from orbit rows, a coarsening from reach rows."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _pack(bits: np.ndarray) -> tuple[int, ...]:
    """The rows of a 0/1 matrix as masks."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    nbytes = packed.shape[1]
    buf = packed.tobytes()
    # from a list: a tuple built from a generator is resized as it grows, and
    # each freed one stays on the tuple free list until a full collection
    return tuple([
        int.from_bytes(buf[k * nbytes : (k + 1) * nbytes], "little")
        for k in range(packed.shape[0])
    ])


def transpose_masks(masks: Sequence[int], width: int) -> tuple[int, ...]:
    """The transposed bit matrix: bit i of output j is bit j of masks[i].

    Takes len(masks) masks over `width` bits and returns `width` masks over
    len(masks) bits.
    """
    nbytes = (width + 7) // 8
    buf = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), nbytes)
    return _pack(np.unpackbits(packed, axis=1, count=width, bitorder="little").T)


def run_spans(masks: Sequence[int]) -> Optional[tuple[tuple[int, int], ...]]:
    """The (start, end) of each nonzero mask when every one is a run of ones,
    the index interval [start, end); None when some mask is not a run."""
    spans = []
    for m in masks:
        start, end = (m & -m).bit_length() - 1, m.bit_length()
        if m != (1 << end) - (1 << start):
            return None
        spans.append((start, end))
    return tuple(spans)


def run_transpose(spans: Sequence[tuple[int, int]], width: int) -> tuple[int, ...]:
    """`transpose_masks` of runs over `width` bits, from their spans: going up
    the columns, bit k is switched on at start k and off at end k."""
    edges = [0] * (width + 1)
    for k, (start, end) in enumerate(spans):
        edges[start] ^= 1 << k
        edges[end] ^= 1 << k
    return tuple(itertools.accumulate(edges[:width], operator.xor))


def run_stars(spans: Sequence[tuple[int, int]], width: int) -> tuple[int, ...]:
    """The point stars of runs over `width` bits, when every column lies in
    some run: star j is the union of the runs through column j, the
    `union_rows` of the runs over row j of `run_transpose(spans, width)`.
    Those runs all hold j, so their union is the run from lo[j], the least
    start of a run that ends after j (a suffix minimum of starts by end), to
    hi[j], the greatest end of a run that starts at or before j (a prefix
    maximum of ends by start)."""
    least_start = [width] * (width + 1)  # by end
    greatest_end = [0] * width  # by start
    for start, end in spans:
        least_start[end] = min(least_start[end], start)
        greatest_end[start] = max(greatest_end[start], end)
    lo = list(itertools.accumulate(reversed(least_start[1:]), min))[::-1]
    hi = itertools.accumulate(greatest_end, max)
    return tuple([(1 << h) - (1 << l) for l, h in zip(lo, hi)])


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances from each coordinate row of `a` to each row of `b`.

    The norm scales each difference by its sup norm before squaring, so no
    finite distance overflows; in one dimension it equals |x - y| exactly,
    and it is 0 exactly when the difference is 0. With `a` and `b` the same
    rows the result is a metric by construction, so `build_metric_space`
    checks none of these facts:

    - the diagonal is exactly 0: every difference is 0, and a zero scale
      skips the division;
    - the matrix is exactly symmetric: fl(x - y) == -fl(y - x) in IEEE
      arithmetic, so |a - b| == |b - a|, and both orders then run the same
      operations on the same values;
    - the triangle law holds for the norm of the float coordinates, and the
      computed distances break it only by rounding: with m coordinates,
      d[i, j] exceeds d[i, k] + d[k, j] by less than (m + 9) * eps / 2
      relative to that sum, to first order in eps.

    In three or more dimensions a distance can round below an exact tie: the
    difference (2, 10, 11)/8 has norm 15/8 but can compute to
    1.8749999999999998, so an open ball of radius 15/8 then holds its point.
    """
    diff = a[:, None, :] - b[None, :, :]
    np.abs(diff, out=diff)
    scale = diff.max(axis=2)
    np.divide(diff, scale[:, :, None], out=diff, where=scale[:, :, None] > 0)
    np.square(diff, out=diff)
    dist = diff.sum(axis=2)
    return np.multiply(scale, np.sqrt(dist, out=dist), out=dist)


def build_metric_space(
    coords: Sequence[Sequence[float]], ids: Optional[Sequence[str]] = None
) -> Space:
    """Build a metric space from coordinate vectors.

    Rejects an empty input, ragged rows, a non-finite coordinate or
    distance, duplicate ids and indistinguishable points, naming the first
    offending pair in row-major order. The checks take O(n * m) time and
    memory for n points of m coordinates; no n x n table is built.
    """
    if len(coords) == 0:
        raise EmptyInput("a space needs at least one point")
    if len({len(row) for row in coords}) > 1:
        raise ValueError("all coordinate vectors must have the same length")
    arr = np.array([[float(c) for c in row] for row in coords], dtype=float)
    if ids is None:
        ids = _default_ids(arr)
    bad = ~np.isfinite(arr)
    if bad.any():
        i = int(np.argwhere(bad)[0][0])
        raise NonFiniteValue(f"point {ids[i]} has a non-finite coordinate")
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if list(ids).count(i) > 1)
        raise DuplicatePoint(f"duplicate point id {dup!r}")
    # a distance is at most sqrt(m) times the widest coordinate difference,
    # so only a row whose reach overflows that bound is measured; a span
    # that overflows gives an infinite reach
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.maximum(arr.max(axis=0) - arr, arr - arr.min(axis=0)).max(axis=1)
        for i in np.flatnonzero(~np.isfinite(reach * np.sqrt(arr.shape[1]))):
            bad = ~np.isfinite(_pairwise_distances(arr[i : i + 1], arr)[0])
            if bad.any():
                j = int(np.argmax(bad))
                raise NonFiniteValue(
                    f"the distance from point {ids[i]} to point {ids[j]} is not finite"
                )
    # a distance is 0 exactly when the rows are equal (0.0 == -0.0)
    first: dict[tuple, int] = {}
    pair = None
    for j, row in enumerate(map(tuple, arr.tolist())):
        i = first.setdefault(row, j)
        if i != j and (pair is None or i < pair[0]):
            pair = (i, j)
    if pair:
        raise DuplicatePoint(f"points {ids[pair[0]]} and {ids[pair[1]]} are indistinguishable")
    points = tuple(
        Point(pid=ids[i], index=i, coords=tuple(arr[i])) for i in range(len(ids))
    )
    return Space(points=points)


def line_grid(start: float, stop: float, count: int) -> Space:
    """Evenly spaced sample of the interval [start, stop] with `count` points."""
    # a span that overflows yields non-finite points, reported as such
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.linspace(start, stop, count)
    return build_metric_space([[x] for x in xs])


def ball_rows(
    coords: Sequence, centers: Sequence, radii: Sequence[float]
) -> list[tuple[int, ...]]:
    """Open euclidean balls from coordinates: per radius, per center, the
    mask of the coordinate rows strictly closer than the radius, that is
    whose `_pairwise_distances` distance is below it.

    On strictly increasing 1-D coordinates, as on a line grid, every ball is
    an index interval, and `_interval_balls` finds its two ends with no
    distance table. Any other coordinates go through one kernel pass that
    measures every distance, and each radius is then one `<`; the distance
    table is dropped on return. In three or more dimensions a row at exactly
    the radius can round to inside (see `_pairwise_distances`)."""
    rows = np.asarray(coords, dtype=float)
    cs = np.asarray(centers, dtype=float).reshape(-1, rows.shape[1])
    if rows.shape[1] == 1 and (np.diff(rows[:, 0]) > 0).all():
        return _interval_balls(rows[:, 0], cs[:, 0], radii)
    dist = _pairwise_distances(cs, rows)
    return [_pack(dist < r) for r in radii]


def _interval_balls(
    xs: np.ndarray, cs: np.ndarray, radii: Sequence[float]
) -> list[tuple[int, ...]]:
    """`ball_rows` on strictly increasing 1-D coordinates `xs`.

    In one dimension `_pairwise_distances` is exactly |fl(c - x)|, and IEEE
    subtraction is monotone. So from the first index `mid` with x >= c the
    distance rises, and below it the distance falls towards c: the ball is
    [lo, hi), with lo the first index below `mid` inside the ball (else
    `mid`) and hi the first index from `mid` on outside it (else n).
    `np.searchsorted` at c - r and c + r guesses both ends, and `_first`
    settles each on that exact predicate, so a tie rounds as it does in the
    distance table. An exact tie predicate would change only the two
    searches: the ball stays one interval."""
    n = len(xs)
    mid = np.searchsorted(xs, cs)
    out = []
    for r in radii:
        def inside(j):
            # an index past either end is masked out by `_first`
            return np.abs(cs - xs[np.minimum(j, n - 1)]) < r

        lo = _first(inside, np.searchsorted(xs, cs - r, side="right"), 0, mid)
        hi = _first(lambda j: ~inside(j), np.searchsorted(xs, cs + r), mid, n)
        out.append(tuple([(1 << h) - (1 << l) for l, h in zip(lo.tolist(), hi.tolist())]))
    return out


def _first(holds, guess: np.ndarray, a, b) -> np.ndarray:
    """Per center, the least index j in [a, b) with `holds(j)`, else b, where
    `holds` is false and then true along [a, b): the guess moves down while
    the index below it holds and up while its own index does not."""
    j = np.clip(guess, a, b)
    while (step := (j > a) & holds(j - 1)).any():
        j = j - step
    while (step := (j < b) & ~holds(j)).any():
        j = j + step
    return j


def build_finite_topology(
    point_ids: Sequence[str], opens: Iterable[Iterable[str]]
) -> Space:
    """Build a finite-topology space; closure under union/intersection is checked exhaustively."""
    if len(point_ids) == 0:
        raise EmptyInput("a space needs at least one point")
    if len(set(point_ids)) != len(point_ids):
        raise DuplicatePoint("duplicate point ids")
    idx = {pid: i for i, pid in enumerate(point_ids)}
    masks = set()
    for o in opens:
        o = list(o)
        bad = [x for x in o if x not in idx]
        if bad:
            raise ValueError(f"open set mentions unknown point {bad[0]!r}")
        masks.add(sum(1 << idx[x] for x in set(o)))
    full = (1 << len(point_ids)) - 1
    if 0 not in masks or full not in masks:
        raise MissingEmptyOrFull("opens must contain the empty set and the full point set")
    ordered = sorted(masks)
    points = tuple(Point(pid=pid, index=i) for pid, i in idx.items())
    id_set = lambda m: frozenset(point_ids[i] for i in iter_bits(m))
    for a, b in itertools.combinations(ordered, 2):
        if (a | b) not in masks:
            raise NotClosedUnderUnion(id_set(a), id_set(b))
        if (a & b) not in masks:
            raise NotClosedUnderIntersection(id_set(a), id_set(b))
    return Space(points=points, opens=tuple(ordered))


def enumerate_topologies(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All topologies on n labeled points, each as a sorted tuple of open masks."""
    if n > 4:
        raise ValueError("topology enumeration is intended for tiny spaces")
    full = (1 << n) - 1
    proper = [m for m in range(full + 1) if m not in (0, full)]
    out = []
    for r in range(len(proper) + 1):
        for combo in itertools.combinations(proper, r):
            fam = set(combo) | {0, full}
            ok = all((a | b) in fam and (a & b) in fam for a in fam for b in fam)
            if ok:
                out.append(tuple(sorted(fam)))
    return out
