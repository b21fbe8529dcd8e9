"""Finite discretized phase spaces: metric point samples and explicit finite topologies.

A Space is a finite set of points carrying either coordinates, whose
euclidean norm distances make it a metric space, or a validated finite
topology, as a list of open sets. The coordinates in `Space.points` are the
only stored geometry of a metric space: `ball_rows` measures balls from them,
and nothing keeps a distance table. A metric space checks its input (finite
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

    def __repr__(self) -> str:
        return f"Point({self.pid})"


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
# mask is column i of its row (little bit order within each byte). There are
# two compositions: a mask picks rows of a table through `union_rows`, and a
# table composes with a table through `bool_product`, one float32 matmul.


def union_rows(table: Sequence[int], mask: int) -> int:
    """The OR of table[k] over the bits k of `mask`: a star from point stars,
    an orbit from orbit rows, a coarsening from reach rows."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _unpack(masks: Sequence[int], width: int) -> np.ndarray:
    """Masks over `width` bits as the rows of a 0/1 uint8 matrix."""
    nbytes = (width + 7) // 8
    buf = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


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
    return _pack(_unpack(masks, width).T)


def bool_product(rows: Sequence[int], cols: Sequence[int], width: int) -> tuple[int, ...]:
    """The boolean matrix product of masks: bit j of output row i is set iff
    rows[i] & cols[j] != 0, both masks over `width` bits. It is one float32
    matmul of the unpacked operands; a sum of ones is 0 only where no bit is
    shared."""
    lhs = _unpack(rows, width).astype(np.float32)
    rhs = _unpack(cols, width).astype(np.float32)
    return _pack(lhs @ rhs.T > 0)


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
    arr = np.array([[float(c) for c in row] for row in coords], dtype=float)
    if arr.ndim != 2:
        raise ValueError("all coordinate vectors must have the same length")
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
    mask of the coordinate rows strictly closer than the radius. One kernel
    pass measures every distance, then each radius is one `<`; the distance
    table is dropped on return. In three or more dimensions a row at exactly
    the radius can round to inside (see `_pairwise_distances`)."""
    rows = np.asarray(coords, dtype=float)
    cs = np.asarray(centers, dtype=float).reshape(-1, rows.shape[1])
    dist = _pairwise_distances(cs, rows)
    return [_pack(dist < r) for r in radii]


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
