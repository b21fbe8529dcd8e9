"""Semigroup actions, filter bases, limit sets, attraction, and dissipativity checks.

Limit behavior is directed by a filter basis given as a nested chain of
semigroup subsets with per-level samplers. Nets are replaced by sequences
indexed by the chain truncation; all verdicts are "verified up to budget".
The limit sets ω(Y) and J(x) are one intersection of closures of level orbits,
seeded by Y at every level for ω(Y) and by shrinking stars of x for J(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .compactness import is_bounded, member_measure, star_measure
from .covering import AdmissibleFamily, CheckList, CheckResult, first_failure
from .proximity import stars_containing
from .space import CoverdynError, EmptyInput, Space, iter_bits, union_rows


class NestingViolation(CoverdynError):
    """Filter levels are not nested on their samples."""


@dataclass(frozen=True)
class Semigroup:
    """An enumerable semigroup carrier with composition and division.

    `divide_left(t, s)` returns a with s*a = t (None if no such element);
    `divide_right(t, s)` returns a with a*s = t. Division backs the exact
    translation-hypothesis checks. `compose` and the divisions must be pure
    functions, and elements hashable: `check_hypotheses` memoises filter-level
    membership by element value.
    """

    compose: Callable
    sample: Callable[[int], tuple]
    divide_left: Callable
    divide_right: Callable


def nat_add() -> Semigroup:
    """Nonnegative integers under addition."""
    return Semigroup(
        compose=lambda a, b: a + b,
        sample=lambda count: tuple(range(count)),
        divide_left=lambda t, s: t - s if t - s >= 0 else None,
        divide_right=lambda t, s: t - s if t - s >= 0 else None,
    )


def nat_mul() -> Semigroup:
    """Positive integers under multiplication."""
    def div(t, s):
        return t // s if s != 0 and t % s == 0 and t // s >= 1 else None

    return Semigroup(
        compose=lambda a, b: a * b,
        sample=lambda count: tuple(range(1, count + 1)),
        divide_left=div,
        divide_right=div,
    )


def vector_add(dim: int) -> Semigroup:
    """Nonnegative integer vectors under componentwise addition."""
    def sample(count):
        out = []
        k = 0
        while len(out) < count:
            base = (k,) * dim
            out.append(base)
            if dim > 1 and len(out) < count:
                out.append((k + 1,) + (k,) * (dim - 1))
            k += 1
        return tuple(out[:count])

    def div(t, s):
        a = tuple(x - y for x, y in zip(t, s))
        return a if all(v >= 0 for v in a) else None

    return Semigroup(
        compose=lambda a, b: tuple(x + y for x, y in zip(a, b)),
        sample=sample,
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
        sample=lambda count: tuple(L**j for j in range(1, count + 1)),
        divide_left=div,
        divide_right=div,
    )


@dataclass(frozen=True)
class FilterBasis:
    """A nested chain of semigroup subsets with per-level samplers.

    `contains(el, k)` is the membership predicate of level k; `sampler(k)`
    returns a deterministic finite sample of level k. `enumerate_level`,
    when present, lists every element of level k up to a carrier bound and
    backs exhaustive hypothesis checks. `contains` must be a pure function of
    the element and the level: `check_hypotheses` memoises it by element value.
    `sampler` must be a pure function of the level: `orbit_rows` and
    `orbit_mask` memoise per-point and per-set level orbits on the action,
    keyed by the basis and the level. A basis compares by its fields, and it
    hashes them (its semigroup's with them) once, on the first lookup: the
    fields are frozen, so every later lookup reads the stored hash.
    """

    semigroup: Semigroup
    depth: int
    contains: Callable[[object, int], bool]
    sampler: Callable[[int], tuple]
    enumerate_level: Optional[Callable[[int, int], tuple]] = None

    def __post_init__(self):
        if self.depth < 0:
            raise NestingViolation(f"a filter basis needs a level 0; got depth {self.depth}")
        for k in range(self.depth + 1):
            sample = self.sampler(k)
            if not sample:
                raise NestingViolation(f"level {k} has an empty sample")
            for el in sample:
                if not self.contains(el, k):
                    raise NestingViolation(f"sample {el!r} is not in level {k}")
                if k > 0 and not self.contains(el, k - 1):
                    raise NestingViolation(
                        f"sample {el!r} of level {k} escapes level {k - 1}"
                    )

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            fields = (self.semigroup, self.depth, self.contains, self.sampler, self.enumerate_level)
            h = hash(fields)
            object.__setattr__(self, "_hash", h)
        return h

    def levels(self) -> range:
        return range(self.depth + 1)


def integer_tails(
    semigroup: Semigroup, depth: int, window: int = 4, start: int = 0
) -> FilterBasis:
    """Tail sets {t : t >= k} of an integer semigroup.

    Level samples run from the level's floor to the common truncation edge
    `depth + window`, so sampled level images nest like the tail sets do.
    """
    lo = lambda k: max(k, start)
    return FilterBasis(
        semigroup=semigroup,
        depth=depth,
        contains=lambda el, k: el >= lo(k),
        sampler=lambda k: tuple(range(lo(k), lo(depth) + window)),
        enumerate_level=lambda k, bound: tuple(range(lo(k), bound + 1)),
    )


def vector_tails(dim: int, depth: int, window: int = 4) -> FilterBasis:
    """Tail sets {t : t_i >= k for all i} of the vector-addition semigroup,
    sampled along the diagonal up to the truncation edge."""
    return FilterBasis(
        semigroup=vector_add(dim),
        depth=depth,
        contains=lambda el, k: all(v >= k for v in el),
        # from a list: tuple() over a generator resizes as it grows, which
        # raised peak memory on the attractor path
        sampler=lambda k: tuple([(m,) * dim for m in range(k, depth + window)]),
    )


def scaling_tails(depth: int, window: int = 3, L: float = 0.5) -> FilterBasis:
    """Levels {c : |c| <= L**m}: iterated contractions of scale at least m."""
    tol = 1e-12
    return FilterBasis(
        semigroup=scaling_maps(L),
        depth=depth,
        contains=lambda el, m: abs(el) <= L ** max(m, 1) + tol,
        # from a list, as in vector_tails
        sampler=lambda m: tuple([L**j for j in range(max(m, 1), max(depth, 1) + window)]),
    )


@dataclass(frozen=True, eq=False)
class Action:
    """A semigroup action on a finite space; every image is again a sample point.

    Points are indices: `apply_fn(el, i)` returns the index of the image of
    point i as a Python int. It must be pure: element image rows
    (`image_indices`), per-point orbit rows (`orbit_rows`) and set orbits
    (`orbit_mask`) are cached for the life of the action; `image_mask` is not.
    Every image read, witnesses included, comes from the image rows.
    """

    semigroup: Semigroup
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

    def check_associativity(self, elements: Sequence) -> Optional[tuple]:
        """Return the first (s, t, x), x a point index, with s(t(x)) != (s*t)(x),
        in element, element, index order; None when every sampled pair passes."""
        for s in elements:
            rs = self.image_indices(s)
            for t in elements:
                rt = self.image_indices(t)
                rst = self.image_indices(self.semigroup.compose(s, t))
                for x in range(self.space.n):
                    if rs[rt[x]] != rst[x]:
                        return (s, t, x)
        return None


def orbit_rows(level: int, action: Action, F: FilterBasis) -> tuple[int, ...]:
    """Per point, the mask of its images under the sampled elements of filter
    level `level`, from the cached `image_indices` rows, memoised on the action
    per (basis, level). A basis hashes by its fields, so bases with different
    samplers never share a key."""
    cache = action.__dict__.setdefault("_orbit_rows", {})
    key = (F, level)
    rows = cache.get(key)
    if rows is None:
        acc = [0] * action.space.n
        for el in F.sampler(level):
            for i, j in enumerate(action.image_indices(el)):
                acc[i] |= 1 << j
        rows = cache[key] = tuple(acc)
    return rows


def orbit_mask(level: int, ymask: int, action: Action, F: FilterBasis) -> int:
    """Image of the point set `ymask` under the sampled elements of filter level
    `level`: the union of the orbit rows of its points, cached on the action
    per (basis, level, set)."""
    cache = action.__dict__.setdefault("_orbit_cache", {})
    key = (F, level, ymask)
    out = cache.get(key)
    if out is None:
        out = cache[key] = union_rows(orbit_rows(level, action, F), ymask)
    return out


@dataclass(frozen=True)
class LimitSetReport:
    """A computed limit set with the certification data that produced it:
    `witnesses` maps each limit point's index to the (element, source index)
    whose deepest-level image, read from the element's image row, lies in the
    point's finest star."""

    mask: int
    space: Space
    resolution: int
    truncation: int
    witnesses: dict

    def pids(self) -> list[str]:
        return self.space.pids(self.mask)

    def to_dict(self) -> dict:
        pts = self.space.points
        return {
            "points": self.pids(),
            "resolution": self.resolution,
            "truncation": self.truncation,
            "witnesses": {
                pts[i].pid: {"element": repr(el), "source": pts[src].pid}
                for i, (el, src) in self.witnesses.items()
            },
        }


def _limit_set(
    seeds: Sequence[int], F: FilterBasis, action: Action, family: AdmissibleFamily
) -> LimitSetReport:
    """Intersection over filter levels k of the closures of the level-k orbits
    of `seeds[k]`, each read from a base of the uniformity (`closure_mask`),
    up to the first empty one. A limit point lies in the finest star of the
    deepest orbit and is witnessed by the first deepest (element, seed point)
    whose image hits that star. A point's star holds y iff y's star holds
    the point, so one pass over those pairs lets each image claim the
    unwitnessed points of its star."""
    space = action.space
    acc = space.full_mask
    for k in F.levels():
        acc &= family.closure_mask(orbit_mask(k, seeds[k], action, F))
        if not acc:
            break
    stars = family.coverings[-1].point_star
    found, todo = {}, acc
    for el in F.sampler(F.depth):
        if not todo:
            break
        row = action.image_indices(el)
        for src in iter_bits(seeds[F.depth]):
            claim = todo & stars[row[src]]
            for i in iter_bits(claim):
                found[i] = (el, src)
            todo &= ~claim
    return LimitSetReport(
        mask=acc,
        space=space,
        resolution=family.depth,
        truncation=F.depth,
        witnesses={i: found[i] for i in iter_bits(acc)},
    )


def omega_limit(
    ymask: int, F: FilterBasis, action: Action, family: AdmissibleFamily
) -> LimitSetReport:
    """Intersection over filter levels of the closures of the level orbits."""
    if not ymask:
        raise EmptyInput("limit set of the empty set is undefined")
    return _limit_set([ymask] * (F.depth + 1), F, action, family)


def prolongational_limit(
    x: int, F: FilterBasis, action: Action, family: AdmissibleFamily
) -> LimitSetReport:
    """Limit points of divergent orbits started from shrinking stars around x."""
    finest = family.depth
    seeds = [family.coverings[min(k, finest)].point_star[x] for k in F.levels()]
    return _limit_set(seeds, F, action, family)


@dataclass(frozen=True)
class AttractionReport:
    """Per covering index: the absorbing filter level, or a failure witness (el, z, image)."""

    levels: dict
    failures: dict

    @property
    def attracted(self) -> bool:
        return not self.failures


def attracts(
    ymask: int, zmask: int, F: FilterBasis, action: Action, family: AdmissibleFamily
) -> AttractionReport:
    """Level search per covering index: the least filter level whose orbit of Z
    lies in the star of Y, or an image of the deepest orbit that leaves it.
    Each covering has its own verdict, so every star of Y is read, not only a
    base's; the levels are walked until every covering has absorbed."""
    if not ymask or not zmask:
        raise EmptyInput("attraction needs nonempty sets")
    stars = family.stars(ymask)
    levels, todo = {}, (1 << family.size) - 1
    for k in F.levels():
        # the open covering indices whose star of Y holds the orbit of Z
        inside = todo & stars_containing(orbit_mask(k, zmask, action, F), stars)
        for i in iter_bits(inside):
            levels[i] = k
        todo &= ~inside
        if not todo:
            break
    # the deepest orbit leaves each open star, so one of its images does
    failures = {
        i: next(
            (el, z, row[z])
            for el in F.sampler(F.depth)
            for row in (action.image_indices(el),)
            for z in iter_bits(zmask)
            if not (stars[i] >> row[z]) & 1
        )
        for i in iter_bits(todo)
    }
    return AttractionReport(levels=levels, failures=failures)


def absorbs(ymask: int, zmask: int, F: FilterBasis, action: Action) -> Optional[int]:
    """Least sampled filter level whose orbit of Z lies inside Y, if any."""
    if not ymask or not zmask:
        raise EmptyInput("absorption needs nonempty sets")
    for k in F.levels():
        if orbit_mask(k, zmask, action, F) & ~ymask == 0:
            return k
    return None


HYPOTHESIS_NAMES = {
    "left_translate_into": "for all s, A there is B with s*B inside A",
    "right_translate_into": "for all s, A there is B with B*s inside A",
    "within_right_translate": "for all s, A there is B inside A*s",
    "within_left_translate": "for all s, A there is B inside s*A",
}


# carrier bound up to which `check_hypotheses` lists an enumerable filter level
ENUMERATION_BOUND = 1000


def check_hypotheses(F: FilterBasis, max_level: int) -> CheckList:
    """Exact translation-compatibility checks between the filter basis and the
    semigroup, per element s of `F.semigroup.sample(4)` and level, using
    semigroup division: one row per hypothesis, in sorted-name order.

    Levels are checked up to `max_level`, which callers leave below the
    depth so that witness levels can exist inside the truncation. A
    hypothesis holds at (s, k) when some filter level j has the element
    tested for each of its elements b inside level k: s*b, b*s, or the a
    with a*s = b or with s*a = b, one per hypothesis (a failed division
    fails every level). Each level is every element up to
    `ENUMERATION_BOUND` when the basis enumerates it, else its sample, so the
    verdict is exact up to that bound.

    One table pass decides every k at once: per (hypothesis, s) each element
    b of a filter level is mapped to the element it is tested on, and that
    element to the bitmask of checked levels that contain it (memoised by
    element value across hypotheses and samples). Level j satisfies the AND
    of those masks over its elements, and the satisfied levels are the OR of
    those ANDs over j. An OR does not depend on the order of its terms, so
    the scan runs from the deepest filter level up to level 0: with nested
    levels the deepest one satisfies every checked level whenever the row
    passes, and the scan stops after it. The scan of a level stops once its
    AND holds no level that is still unsatisfied, which leaves the OR as it
    is. Each filter level is listed at most once per call. A row fails at its
    first failing (s, k), in sample order and then level order; its witness
    names s, k and the first element of level 0 that blocks level k, and
    later samples go unchecked.
    """
    sem = F.semigroup
    s_samples = sem.sample(4)
    checked = range(min(max_level, F.depth) + 1)
    every = (1 << len(checked)) - 1

    listed: dict = {}  # filter level -> its elements

    def elements_of(j):
        out = listed.get(j)
        if out is None:
            if F.enumerate_level is not None:
                out = F.enumerate_level(j, ENUMERATION_BOUND)
            else:
                out = F.sampler(j)
            listed[j] = out
        return out

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
        tested = _tested_element(name, sem)
        for s in s_samples:
            satisfied = 0
            for j in reversed(F.levels()):
                acc, open_levels = every, every & ~satisfied
                for b in elements_of(j):
                    acc &= levels_holding(tested(s, b))
                    if not acc & open_levels:
                        break
                satisfied |= acc
                if satisfied == every:
                    break
            failed = every & ~satisfied
            if failed:
                k = (failed & -failed).bit_length() - 1
                # level 0 fails k too, so it holds the first blocking element
                blocker = next(
                    b for b in elements_of(0)
                    if not (levels_holding(tested(s, b)) >> k) & 1
                )
                yield f"s={s!r} level={k} blocker={blocker!r}"

    return CheckList(checks=tuple(
        first_failure(name, failures(name)) for name in sorted(HYPOTHESIS_NAMES)
    ))


def _tested_element(name: str, sem: Semigroup) -> Callable:
    """The map (s, b) -> the element whose membership in level k decides
    hypothesis `name` at (s, k, b); None fails every level."""
    if name == "left_translate_into":
        return sem.compose
    if name == "right_translate_into":
        return lambda s, b: sem.compose(b, s)
    divide = sem.divide_right if name == "within_right_translate" else sem.divide_left
    return lambda s, b: divide(b, s)


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

    `limit_compact` is truncated: a test set passes when every covering lies
    in the member measure of its orbit at some filter level, that is, when
    the OR over the levels of those measures is the whole family; the
    witness is the first test set, by name, and the least covering that no
    level keeps. The scan reads the levels from the deepest orbit, nearest
    the attractor, back to level 0, and stops once the OR is the whole
    family. The order is free: an OR does not depend on it, the scan stops
    only at the whole family, and a set that never fills it reads every
    level either way, so the verdict and the witness are the same. The
    order decides only which cover searches run, which would matter only
    where a search exceeds its node budget (ROADMAP item 2); no CLI run
    reaches that budget."""
    if not testsets:
        raise EmptyInput("the taxonomy needs at least one test set")
    space = action.space
    outcomes = []
    masks = dict(sorted(testsets.items()))
    orbits = {
        name: [orbit_mask(k, m, action, F) for k in F.levels()] for name, m in masks.items()
    }

    outcomes.append(first_failure("eventually_bounded", (
        f"orbit of {name} never becomes bounded"
        for name, per_level in orbits.items()
        if not any(is_bounded(om, family) for om in per_level)
    )))

    candidates = []
    if absorb_candidate:
        candidates.append(("declared", absorb_candidate))
        for i, star in enumerate(family.stars(absorb_candidate)):
            candidates.append((f"declared-star-{i}", star))
    candidates.append(("whole-space", space.full_mask))
    bounded = [(cname, D) for cname, D in candidates if is_bounded(D, family)]
    ok, wit = False, "no bounded absorbing candidate"
    for cname, D in bounded:
        if all(absorbs(D, m, F, action) is not None for m in masks.values()):
            ok, wit = True, f"absorbing set: {cname}"
            break
    if not ok and (absorb_candidate or bounded):
        wit = "no candidate absorbs every test set"
    outcomes.append(CheckResult("bounded_dissipative", ok, wit))

    ok, wit = False, "no bounded candidate absorbs every sampled point"
    for cname, D in bounded:
        if all(absorbs(D, 1 << x, F, action) is not None for x in iter_bits(points_sample)):
            ok, wit = True, f"absorbing set: {cname}"
            break
    outcomes.append(CheckResult("point_dissipative", ok, wit))

    def clusterless_tails():
        fine = family.coverings[-1].point_star
        levels = F.levels()[-TAIL_WINDOW:]
        for name, m in masks.items():
            for pname, xs in _sequence_patterns(m, F.depth + 1):
                tail = [action.image_indices(F.sampler(k)[0])[xs[k]] for k in levels]
                # a stable cluster, the truncated stand-in for a cluster point:
                # some point's finest star holds two of the tail images
                if not any(sum((star >> i) & 1 for i in tail) >= 2 for star in fine):
                    trail = ",".join(space.points[i].pid for i in tail)
                    yield f"{name}/{pname}: tail images [{trail}] admit no cluster"

    outcomes.append(first_failure("asymptotically_compact", clusterless_tails()))

    def dropped_coverings():
        every = (1 << family.size) - 1
        for name, per_level in orbits.items():
            # the coverings kept by the member measure at some level, read
            # from the deepest orbit, which lies nearest the attractor
            kept = 0
            for om in reversed(per_level):
                kept |= member_measure(om, family, cap).mask
                if kept == every:
                    break
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
