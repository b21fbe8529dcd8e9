"""Semigroup actions, filter bases, limit sets, attraction, and dissipativity checks.

Limit behavior is directed by a filter basis: a nested chain of semigroup
subsets with the level samples it certified. Nets are replaced by sequences
indexed by the chain truncation; all verdicts are "verified up to budget".
The limit sets ω(Y) and J(x) intersect the closures of level orbits; level
samples nest, so the orbits of one seed nest and, closures being monotone,
the deepest orbit's closure is the intersection. For the same reason the
deepest orbit alone decides attraction, absorption, and the taxonomy's
eventually-bounded and limit-compact rows, and the deepest level's listing
alone decides the translation hypotheses.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .compactness import is_bounded, member_measure, star_measure
from .covering import AdmissibleFamily, CheckList, CheckResult, first_failure
from .proximity import CoverCollection, semi_prox
from .space import CoverdynError, EmptyInput, Space, iter_bits, union_rows


class NestingViolation(CoverdynError):
    """Filter levels are not nested on their samples."""


@dataclass(frozen=True)
class Semigroup:
    """An enumerable semigroup carrier with composition and division.

    `samples` are the elements s that the translation hypotheses are
    checked at. `divide_left(t, s)` returns a with s*a = t (None if no such
    element); `divide_right(t, s)` returns a with a*s = t. Division backs the
    exact translation-hypothesis checks. `compose` and the divisions must be
    pure functions, and elements hashable: `check_hypotheses` memoises
    filter-level membership by element value.
    """

    compose: Callable
    samples: tuple
    divide_left: Callable
    divide_right: Callable


def nat_add() -> Semigroup:
    """Nonnegative integers under addition."""
    return Semigroup(
        compose=lambda a, b: a + b,
        samples=(0, 1, 2, 3),
        divide_left=lambda t, s: t - s if t - s >= 0 else None,
        divide_right=lambda t, s: t - s if t - s >= 0 else None,
    )


def nat_mul() -> Semigroup:
    """Positive integers under multiplication."""
    def div(t, s):
        return t // s if s != 0 and t % s == 0 and t // s >= 1 else None

    return Semigroup(
        compose=lambda a, b: a * b,
        samples=(1, 2, 3, 4),
        divide_left=div,
        divide_right=div,
    )


def vector_add(dim: int) -> Semigroup:
    """Nonnegative integer vectors under componentwise addition."""
    def div(t, s):
        a = tuple(x - y for x, y in zip(t, s))
        return a if all(v >= 0 for v in a) else None

    return Semigroup(
        compose=lambda a, b: tuple(x + y for x, y in zip(a, b)),
        samples=(
            ((0,) * dim, (1,) + (0,) * (dim - 1), (1,) * dim, (2,) + (1,) * (dim - 1))
            if dim > 1 else ((0,), (1,), (2,), (3,))
        ),
        divide_left=div,
        divide_right=div,
    )


def scaling_maps(L: float = 0.5) -> Semigroup:
    """Contractive scalings about a common fixed point, composed by factor product."""
    def div(t, s):
        if s == 0:
            return None
        a = t / s
        return a if abs(a) <= 1.0 else None

    return Semigroup(
        compose=lambda a, b: a * b,
        samples=tuple(L**j for j in range(1, 5)),
        divide_left=div,
        divide_right=div,
    )


# carrier bound up to which `check_hypotheses` lists an enumerable filter level
ENUMERATION_BOUND = 1000


@dataclass(frozen=True, eq=False)
class FilterBasis:
    """A nested chain of semigroup subsets, cut at `depth`, that stores each
    level it certified as a tuple or a `range` in a tuple: any other sequence,
    which could change after its check, raises `TypeError`.

    `contains(el, k)`, level k's membership predicate, is pure: `check_hypotheses`
    memoises it by element value. `level_samples[k]` is certified nonempty,
    inside level k and a subset of level k - 1's sample, so level orbits nest.
    `level_listings[k]`, if given, lists level k up to `ENUMERATION_BOUND` for
    exhaustive hypothesis checks, certified a subset of level k - 1's listing.
    A failed certificate, or a depth past the stored levels, raises
    `NestingViolation` naming the first failing level. `replace(F, depth=k)`
    shares the stored levels, certifies levels 0..k again and has the level-k
    orbits. A basis is its own memo key: no lookup hashes its fields.
    """

    semigroup: Semigroup
    depth: int
    contains: Callable[[object, int], bool]
    level_samples: tuple
    level_listings: Optional[tuple] = None

    def __post_init__(self):
        if self.depth < 0:
            raise NestingViolation(f"a filter basis needs a level 0; got depth {self.depth}")
        previous = listed = None
        for k in self.levels():
            sample = _stored_level(self.level_samples, k, "sample")
            if not sample:
                raise NestingViolation(f"level {k} has an empty sample")
            for el in sample:
                if not self.contains(el, k):
                    raise NestingViolation(f"sample {el!r} is not in level {k}")
                if previous is not None and el not in previous:
                    raise NestingViolation(f"sample {el!r} of level {k} is not sampled at level {k - 1}")
            previous = set(sample)
            if self.level_listings is not None:
                listing = _stored_level(self.level_listings, k, "listing")
                if listed is not None and not listed.issuperset(listing):
                    el = next(el for el in listing if el not in listed)
                    raise NestingViolation(f"element {el!r} of level {k} is not listed at level {k - 1}")
                listed = set(listing)

    def levels(self) -> range:
        return range(self.depth + 1)

    def probes(self) -> tuple:
        """The first four level-0 samples: the elements that an attractor candidate's
        `invariant` row applies, and that a scenario's action is checked associative on."""
        return tuple(self.level_samples[0][:4])


def _stored_level(levels, k: int, what: str):
    """Level k of stored levels: a tuple or a range, in a tuple."""
    if k >= len(levels):
        raise NestingViolation(f"level {k} has no stored {what}")
    if not (isinstance(levels, tuple) and isinstance(levels[k], (tuple, range))):
        raise TypeError(f"the {what} of level {k} is not a tuple or a range in a tuple")
    return levels[k]


def integer_tails(
    semigroup: Semigroup, depth: int, window: int = 4, start: int = 0
) -> FilterBasis:
    """Tail sets {t : t >= k} of an integer semigroup.

    Level samples run from the level's floor to the common truncation edge
    `depth + window`, so sampled level images nest like the tail sets do. A
    deepest level that lists nothing up to `ENUMERATION_BOUND`, so that every
    hypothesis would hold vacuously, raises `NestingViolation`.
    """
    lo, levels = (lambda k: max(k, start)), range(depth + 1)
    if lo(depth) > ENUMERATION_BOUND:
        raise NestingViolation(f"level {depth} lists no element up to the enumeration bound {ENUMERATION_BOUND}")
    return FilterBasis(
        semigroup=semigroup,
        depth=depth,
        contains=lambda el, k: el >= lo(k),
        level_samples=tuple(range(lo(k), lo(depth) + window) for k in levels),
        level_listings=tuple(range(lo(k), ENUMERATION_BOUND + 1) for k in levels),
    )


def vector_tails(dim: int, depth: int, window: int = 4) -> FilterBasis:
    """Tail sets {t : t_i >= k for all i} of the vector-addition semigroup,
    sampled along the diagonal up to the truncation edge."""
    diagonal = tuple([(m,) * dim for m in range(depth + window)])
    return FilterBasis(
        semigroup=vector_add(dim),
        depth=depth,
        contains=lambda el, k: all(v >= k for v in el),
        level_samples=tuple(diagonal[k:] for k in range(depth + 1)),
    )


def scaling_tails(depth: int, window: int = 3, L: float = 0.5) -> FilterBasis:
    """Levels {c : |c| <= L**m}: iterated contractions of scale at least m."""
    powers = tuple([L**j for j in range(max(depth, 1) + window)])
    return FilterBasis(
        semigroup=scaling_maps(L),
        depth=depth,
        contains=lambda el, m: abs(el) <= L ** max(m, 1) + 1e-12,
        level_samples=tuple(powers[max(m, 1):] for m in range(depth + 1)),
    )


@dataclass(frozen=True, eq=False)
class Action:
    """A semigroup action on a finite space; every image is again a sample point.
    Its semigroup is the filter basis's, `FilterBasis.semigroup`.

    Points are indices: `apply_fn(el, i)` returns the index of the image of
    point i as a Python int. It must be pure: element image rows
    (`image_indices`), per-point orbit rows (`orbit_rows`) and set orbits
    (`orbit_mask`) are cached for the life of the action; `image_mask` is not.
    Every image read, witnesses included, comes from the image rows.
    """

    space: Space
    apply_fn: Callable[[object, int], int]

    def image_indices(self, el) -> tuple[int, ...]:
        """Image index of every point under one element, cached per element;
        an image that is not a Python int in [0, n) raises a `CoverdynError`."""
        cache = self.__dict__.setdefault("_image_cache", {})
        row = cache.get(el)
        if row is None:
            n = self.space.n
            row = tuple([self.apply_fn(el, i) for i in range(n)])
            # a bool or a numpy integer is no index; one past n sets bits outside the space
            bad = next((i for i, j in enumerate(row) if type(j) is not int or not 0 <= j < n), None)
            if bad is not None:
                raise CoverdynError(
                    f"element {el!r} sends point {bad} to {row[bad]!r}, not a point index"
                )
            cache[el] = row
        return row

    def image_mask(self, el, ymask: int) -> int:
        """Image of a point set under one element (not memoised)."""
        row = self.image_indices(el)
        out = 0
        for i in iter_bits(ymask):
            out |= 1 << row[i]
        return out

    def check_associativity(self, compose: Callable, elements: Sequence) -> Optional[tuple]:
        """Return the first (s, t, x), x a point index, with s(t(x)) != (s*t)(x),
        s*t being `compose(s, t)`, in element, element, index order; None when
        every sampled pair passes."""
        for s in elements:
            rs = self.image_indices(s)
            for t in elements:
                rt = self.image_indices(t)
                rst = self.image_indices(compose(s, t))
                for x in range(self.space.n):
                    if rs[rt[x]] != rst[x]:
                        return (s, t, x)
        return None


def orbit_rows(action: Action, F: FilterBasis) -> tuple[int, ...]:
    """Per point, the mask of its images under the sampled elements of the
    deepest filter level, from the cached `image_indices` rows, memoised on
    the action per basis: a basis is its own key."""
    cache = action.__dict__.setdefault("_orbit_rows", {})
    rows = cache.get(F)
    if rows is None:
        acc = [0] * action.space.n
        for el in F.level_samples[F.depth]:
            for i, j in enumerate(action.image_indices(el)):
                acc[i] |= 1 << j
        rows = cache[F] = tuple(acc)
    return rows


def orbit_mask(ymask: int, action: Action, F: FilterBasis) -> int:
    """Image of the point set `ymask` under the sampled elements of the
    deepest filter level: the union of the orbit rows of its points, cached
    on the action per (basis, set)."""
    cache = action.__dict__.setdefault("_orbit_cache", {})
    key = (F, ymask)
    out = cache.get(key)
    if out is None:
        out = cache[key] = union_rows(orbit_rows(action, F), ymask)
    return out


def limit_witnesses(
    seed: int, mask: int, F: FilterBasis, action: Action, family: AdmissibleFamily
) -> dict:
    """Per point of the limit set `mask` of `seed`, in index order, the first
    (element, seed point) of the deepest filter level whose image, read from
    the element's image row, lies in the point's finest star. A limit point
    lies in the finest star of the deepest orbit, so one is found. A point's
    star holds y iff y's star holds the point, so one pass over those pairs
    lets each image claim the unwitnessed points of its star."""
    stars = family.coverings[-1].point_star
    found, todo = {}, mask
    for el in F.level_samples[F.depth]:
        if not todo:
            break
        row = action.image_indices(el)
        for src in iter_bits(seed):
            claim = todo & stars[row[src]]
            for i in iter_bits(claim):
                found[i] = (el, src)
            todo &= ~claim
    return {i: found[i] for i in iter_bits(mask)}


def omega_limit(
    ymask: int, F: FilterBasis, action: Action, family: AdmissibleFamily
) -> int:
    """The limit set ω(Y) as a point mask: the intersection over filter
    levels of the closures of the level orbits of Y. The level orbits nest
    and closures are monotone, so it is the closure (`closure_mask`) of the
    deepest orbit."""
    if not ymask:
        raise EmptyInput("limit set of the empty set is undefined")
    return family.closure_mask(orbit_mask(ymask, action, F))


def prolongational_limit(
    x: int, F: FilterBasis, action: Action, family: AdmissibleFamily
) -> int:
    """The limit set J(x) of divergent orbits from shrinking stars around x,
    as a point mask: level k seeds with the AND of x's point stars over
    coverings 0..k. The seeds nest, so their level orbits do, and J(x) is
    the closure of the deepest seed's deepest orbit."""
    seed = family.space.full_mask
    for cov in family.coverings[: F.depth + 1]:
        seed &= cov.point_star[x]
    return family.closure_mask(orbit_mask(seed, action, F))


def attracts(
    ymask: int, zmask: int, F: FilterBasis, action: Action, family: AdmissibleFamily
) -> CoverCollection:
    """The coverings at which Y attracts Z: semi_prox(Y, O_D), O_D the
    deepest level orbit of Z, so Y attracts Z iff the collection
    `is_zero`. Y attracts Z at a covering when some level's orbit lies in
    the star of Y there; the level orbits nest, and a subset of a star lies
    in it, so the deepest orbit decides every covering. Each covering has
    its own verdict, so every star of Y is read, not only a base's."""
    if not ymask or not zmask:
        raise EmptyInput("attraction needs nonempty sets")
    return semi_prox(ymask, orbit_mask(zmask, action, F), family)


def absorbs(ymask: int, zmask: int, F: FilterBasis, action: Action) -> bool:
    """Whether some sampled filter level's orbit of Z lies inside Y: the level
    orbits nest, so the deepest one decides."""
    if not ymask or not zmask:
        raise EmptyInput("absorption needs nonempty sets")
    return orbit_mask(zmask, action, F) & ~ymask == 0


# per hypothesis, the map (semigroup, s, b) -> the element whose membership
# in level k decides it at (s, k, b); None fails every level
HYPOTHESIS_NAMES = {
    "left_translate_into": lambda sem, s, b: sem.compose(s, b),
    "right_translate_into": lambda sem, s, b: sem.compose(b, s),
    "within_right_translate": lambda sem, s, b: sem.divide_right(b, s),
    "within_left_translate": lambda sem, s, b: sem.divide_left(b, s),
}


def check_hypotheses(F: FilterBasis, max_level: int) -> CheckList:
    """Exact translation-compatibility checks between the filter basis and the
    semigroup, per element s of `F.semigroup.samples` and level, using
    semigroup division: one row per hypothesis, in sorted-name order. The
    hypotheses, for every s and every level A:

    - `left_translate_into`: there is a level B with s*B inside A;
    - `right_translate_into`: there is a level B with B*s inside A;
    - `within_right_translate`: there is a level B inside A*s;
    - `within_left_translate`: there is a level B inside s*A.

    Levels are checked up to `max_level`, which callers leave below the
    depth so that witness levels can exist inside the truncation. A
    hypothesis holds at (s, k) when some filter level j has the element
    tested for each of its elements b inside level k: s*b, b*s, or the a
    with a*s = b or with s*a = b, one per hypothesis (a failed division
    fails every level). Each level is its listing, or else its sample, so
    the verdict is exact up to `ENUMERATION_BOUND`.

    The listings nest, and what holds for every element of a listing holds
    for every element of a sublisting, so some level j passes exactly when
    the deepest one does. One table pass over the deepest listing decides
    every k at once: per (hypothesis, s) each of its elements b is mapped to
    the element it is tested on, and that element to the bitmask of checked
    levels that contain it (memoised by element value across hypotheses and
    samples); the AND of those masks holds the levels that pass. A row fails
    at its first failing (s, k), in sample order and then level order; its
    witness names s, k and the first element of level 0 that blocks level k,
    and later samples go unchecked.
    """
    sem = F.semigroup
    checked = range(min(max_level, F.depth) + 1)
    every = (1 << len(checked)) - 1

    listings = F.level_samples if F.level_listings is None else F.level_listings
    deepest = listings[F.depth]
    member: dict = {}  # tested element -> mask of the checked levels holding it

    def levels_holding(a) -> int:
        if a is None:
            return 0
        mask = member.get(a)
        if mask is None:
            mask = 0
            for k in checked:
                if F.contains(a, k):
                    mask |= 1 << k
            member[a] = mask
        return mask

    def failures(name):
        tested = HYPOTHESIS_NAMES[name]
        for s in sem.samples:
            held = every
            for b in deepest:
                held &= levels_holding(tested(sem, s, b))
                if not held:
                    break
            failed = every & ~held
            if failed:
                k = (failed & -failed).bit_length() - 1
                # the deepest listing lies in level 0's, so level 0 holds a blocker
                blocker = next(
                    b for b in listings[0]
                    if not (levels_holding(tested(sem, s, b)) >> k) & 1
                )
                yield f"s={s!r} level={k} blocker={blocker!r}"

    return CheckList(checks=tuple(
        first_failure(name, failures(name)) for name in sorted(HYPOTHESIS_NAMES)
    ))


TAIL_WINDOW = 4


def _sequence_patterns(ymask: int, n_blocks: int) -> list[tuple[str, list[int]]]:
    pts = list(iter_bits(ymask))
    big = max(3, (len(pts) + max(1, n_blocks // 2) - 1) // max(1, n_blocks // 2))
    patterns = []
    for stride in sorted({1, 2, big}):
        seq = [pts[min(stride * k, len(pts) - 1)] for k in range(n_blocks)]
        patterns.append((f"stride-{stride}", seq))
    patterns.append(("constant-first", [pts[0]] * n_blocks))
    patterns.append(("constant-last", [pts[-1]] * n_blocks))
    return patterns


def check_dissipativity(
    action: Action,
    F: FilterBasis,
    family: AdmissibleFamily,
    testsets: dict[str, int],
    cap: int,
    points_sample: int,
    absorb_candidate: Optional[int],
) -> CheckList:
    """Verdicts with witnesses for the five dissipativity/compactness notions,
    on the bounded test sets and the points of the mask `points_sample`. The
    bounded absorbing candidates are `absorb_candidate`, when given, its
    stars, and the whole space.

    The level orbits of a test set nest, O_0 ⊇ … ⊇ O_D, so each truncated
    row that asks whether some level's orbit has a property that passes to
    subsets reads the deepest orbit O_D alone. `eventually_bounded`: some
    level's orbit is bounded exactly when O_D is. `limit_compact`: a test
    set passes when every covering lies in the member measure of its orbit
    at some filter level, and a subset's member measure holds the
    superset's, so that is the member measure of O_D; the witness is the
    first test set, by name, and the least covering that O_D's measure
    drops. `asymptotically_compact` finds a cluster among the tail images
    of each sampled sequence: some point's finest star holds two of them
    exactly when the finest stars of two of them meet, since a point star
    holds y iff y's star holds the point; a repeated image counts, since
    each point lies in its own star."""
    if not testsets:
        raise EmptyInput("the taxonomy needs at least one test set")
    space = action.space
    outcomes = []
    masks = dict(sorted(testsets.items()))
    deepest = {name: orbit_mask(m, action, F) for name, m in masks.items()}

    outcomes.append(first_failure("eventually_bounded", (
        f"orbit of {name} never becomes bounded"
        for name, om in deepest.items()
        if not is_bounded(om, family)
    )))

    candidates = []
    if absorb_candidate:
        candidates.append(("declared", absorb_candidate))
        for i, star in enumerate(family.stars(absorb_candidate)):
            candidates.append((f"declared-star-{i}", star))
    candidates.append(("whole-space", space.full_mask))
    bounded = [(cname, D) for cname, D in candidates if is_bounded(D, family)]
    # the orbit of a union is the union of the orbits, so D absorbs every
    # test set, or every sampled point, when it absorbs their union
    every_set = functools.reduce(operator.or_, masks.values())
    ok, wit = False, "no bounded absorbing candidate"
    for cname, D in bounded:
        if absorbs(D, every_set, F, action):
            ok, wit = True, f"absorbing set: {cname}"
            break
    if not ok and (absorb_candidate or bounded):
        wit = "no candidate absorbs every test set"
    outcomes.append(CheckResult("bounded_dissipative", ok, wit))

    ok, wit = False, "no bounded candidate absorbs every sampled point"
    for cname, D in bounded:
        if not points_sample or absorbs(D, points_sample, F, action):
            ok, wit = True, f"absorbing set: {cname}"
            break
    outcomes.append(CheckResult("point_dissipative", ok, wit))

    def clusterless_tails():
        fine = family.coverings[-1].point_star
        levels = F.levels()[-TAIL_WINDOW:]
        for name, m in masks.items():
            for pname, xs in _sequence_patterns(m, F.depth + 1):
                tail = [action.image_indices(F.level_samples[k][0])[xs[k]] for k in levels]
                # a stable cluster, the truncated stand-in for a cluster point:
                # some point's finest star holds two of the tail images, that
                # is, the finest stars of two of them meet
                if not any(fine[a] & fine[b] for a, b in itertools.combinations(tail, 2)):
                    trail = ",".join(space.points[i].pid for i in tail)
                    yield f"{name}/{pname}: tail images [{trail}] admit no cluster"

    outcomes.append(first_failure("asymptotically_compact", clusterless_tails()))

    def dropped_coverings():
        every = (1 << family.size) - 1
        for name, om in deepest.items():
            kept = member_measure(om, family, cap).mask
            if kept != every:
                i = next(i for i in range(family.size) if not (kept >> i) & 1)
                yield f"{name}: no level keeps covering {i} in the member measure"

    outcomes.append(first_failure("limit_compact", dropped_coverings()))

    return CheckList(checks=tuple(outcomes))


def verify_eventual_compactness(
    action: Action,
    witness_element,
    testsets: dict[str, int],
    family: AdmissibleFamily,
    cap: int,
) -> CheckResult:
    """Check a declared witness: images of the test sets under it close to
    measure-zero sets at the configured cap."""
    for name, ymask in sorted(testsets.items()):
        img = family.closure_mask(action.image_mask(witness_element, ymask))
        if not star_measure(img, family, cap).is_zero:
            return CheckResult(
                "eventually_compact",
                False,
                f"closure of the image of {name} is not measure-zero",
            )
    return CheckResult("eventually_compact", True, f"witness {witness_element!r}")
