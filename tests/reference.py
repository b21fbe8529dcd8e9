"""Reference forms of verdicts, kept as test oracles.

`attracts` decides attraction per covering index by one subset test on the
deepest level orbit. The proximity form below decides it the other way the
theory states it: the one-sided proximity of the images of Z to Y converges
to zero along every divergent net. It computes every image point by point
with `apply_fn`, so it shares neither the image rows nor the orbit masks
with `attracts`.

`convergence_trace` is truncated convergence of a collection sequence by
its definition: per covering index, the first position after which the index
is always present. `converges_to_zero` reads the last element instead.

`reference_star_mask` is the star by its definition, the union of the
members that meet the set, with no point stars and no memo.
`reference_closure_mask` is the family closure by its definition, the
intersection of those stars over every covering; `closure_mask` reads one
covering per refinement-minimal class instead.

`reference_star_basis` is the star-basis row of `verify_admissible` by the
axiom: every point against every open that holds it, the singletons on a
metric space, in row-major order. `verify_admissible` tests each point
against its least open alone.

`reference_attracts` is attraction by its definition, a full level scan:
the orbit of Z at every filter level, taken point by point, against the star
of Y at every covering, with no early stop. It returns the least absorbing
level per covering besides the failures, so a test can check that
`attracts` fails exactly the coverings that no level absorbs.
`reference_absorption_level` is absorption by its definition: the least
filter level whose pointwise orbit of Z lies in Y. `absorbs` tests the
deepest orbit alone.

`reference_limit_witnesses` witnesses each point of a limit set by a scan of
its own: the first (deepest element, seed point) whose image, taken with
`apply_fn`, lies in the point's finest star. `_limit_set` finds them all in
one pass in which each image claims the unwitnessed points of its star.

`reference_limit_compact` is the `limit_compact` row of `check_dissipativity`
by its definition: per test set, the OR over every filter level, read from
level 0 with no early stop, of the coverings whose members cover the level
orbit within the cap, each decided by `reference_coverable_within` on its
own, with no refinement rows and no measure memo. `check_dissipativity`
measures the deepest orbit alone.

`reference_eventually_bounded` is the `eventually_bounded` row by its
definition: per test set in name order, `any` over every filter level,
read from level 0, of whether the level orbit, taken point by point, is
bounded, that is, some covering holds each of its points in the star of
each other, the point stars built from the members by
`reference_star_mask`. `check_dissipativity` tests the deepest orbit alone.

`reference_tail_cluster` is the count scan that `asymptotically_compact`
ran before it tested pairs of tail images: some point's finest star holds
two of the tail images, a repeated image counted once per repeat.
`reference_asymptotically_compact` is the row by it, with every tail image
taken with `apply_fn` and the finest point stars built from the members.

`unbounded_coverable_within` is the exact cover search without the counting
bound of `coverable_within`: it stops a branch only at depth `cap`.

`reference_coverable_within` is `coverable_within` as it was before the trace
shortcut and the size-class dominance filter: it always sorts the traces,
applies the counting bound, and tests each trace against every kept one.
It answers the same and needs the same least node budget.
`reference_undominated` is its quadratic dominance loop alone.

`reference_check_hypotheses` decides the translation hypotheses by the nested
any/all form, one division or composition and one membership call per
(checked level, filter level, element), with no table and no memo. It
returns the same `CheckList` as `check_hypotheses`: one row per hypothesis in
sorted-name order, whose witness is the first failure (s, level, blocker).

`reference_slabs` builds the pointwise value balls of a function model by
the former loop of `funcspace._slabs`: per value that the functions take at
the argument, every table value whose squared euclidean distance from it is
below the squared radius.

`reference_orbit_mask` is the level orbit of a set by its definition, every
sampled element applied to every point with `apply_fn`, with no image rows
and no memo.

`reference_check_associativity` is the triple loop over (s, t, x) that
`Action.check_associativity` replaced, calling `apply_fn` point by point: it
returns the first (s, t, x) with s(t(x)) != (s*t)(x), x a point index.

`reference_distance` is the euclidean distance of two points from their
coordinates in plain Python, `math.hypot` of the differences: exactly
|x - y| in one dimension, where it equals the kernel's distance. In more
dimensions the two may round an exact tie differently: the 3-D difference
(2, 10, 11)/8 has norm 15/8, which the kernel computes as
1.8749999999999998. A sweep of dyadic differences found such ties in 3-D
and none in 2-D, so tests that compare balls against it keep to 1-D, to
2-D dyadic coordinates, or to radii that are no distance of the space.
`reference_point_balls` builds every point's ball from it, one point pair
at a time, with no distance table and no `ball_rows`.

`reference_point_sequence_converges` is truncated convergence of a point
sequence by its definition, one loop per covering: the first position after
which the sequence stays in the star of x must exist. `point_sequence_converges`
reads the last term against the memoised closure of {x} instead.

`metric_axiom_violation` checks a distance matrix against the metric axioms
by the exact O(n^3) loop, with the relative triangle slack that the
`_pairwise_distances` docstring derives. `build_metric_space` checks none of
them, because its norm distances satisfy them by construction.

`reference_slabs` and `reference_point_balls` read a function's values and a
point's position from the point coordinates, the one stored copy.

`reference_proximity_suite` is `proximity_suite` as it was when it read a
prox function: `p(x, y, family)` once per ordered pair into an n×n table of
collection masks, then the per-covering tables of the triangle laws
regrouped from that table by value. It composes those tables by
`walk_product`, the boolean matrix product by a bit walk, so it shares no
kernel with `union_rows`. `stars_of` turns such a prox function into the
per-covering tables that `proximity_suite` reads now. `walk_transpose` is
`transpose_masks` by a bit walk. The two walks are the oracles of both
bit-matrix paths: `transpose_masks` with the compositions by `union_rows`,
and the sweeps over index intervals that a covering of runs takes.

`zero_collection` is the whole family, the least collection: distance zero.
"""

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from coverdyn.compactness import DEFAULT_COVER_NODE_BUDGET, CoverSearchBudgetExceeded
from coverdyn.covering import CheckList, CheckResult, first_failure
from coverdyn.dynamics import HYPOTHESIS_NAMES, TAIL_WINDOW, FilterBasis, _sequence_patterns
from coverdyn.proximity import (
    CoverCollection,
    FamilyMismatch,
    converges_to_zero,
    point_sequence_converges,
    semi_prox,
)
from coverdyn.space import EmptyInput, iter_bits


def triangle_rtol(dim: int) -> float:
    """Relative triangle slack for distances over `dim` coordinates: twice
    the first-order rounding bound (dim + 9) * eps / 2, which also covers
    the higher-order terms and the rounding of the comparison itself."""
    return (dim + 9) * float(np.finfo(float).eps)


def metric_axiom_violation(dist, ids, rtol):
    """The first metric axiom `dist` breaks, as (axiom, witness ids), or None.

    The diagonal must be exactly 0 and the matrix exactly symmetric; a
    triangle (i, j, k) fails when d[i, j] > (d[i, k] + d[k, j]) * (1 + rtol),
    and its witness is (ids[i], ids[j], ids[k]) for the first k, then i, j.
    """
    n = dist.shape[0]
    if np.any(np.diag(dist) != 0.0):
        i = int(np.nonzero(np.diag(dist))[0][0])
        return "zero-on-diagonal", (ids[i],)
    if np.any(dist != dist.T):
        i, j = map(int, np.argwhere(dist != dist.T)[0])
        return "symmetry", (ids[i], ids[j])
    for k in range(n):
        bad = dist > (dist[:, k, None] + dist[None, k, :]) * (1 + rtol)
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            return "triangle", (ids[i], ids[j], ids[k])
    return None


def divergent_sequence(F):
    """A canonical divergent sequence: the k-th block is drawn from level k."""
    return [(k, el) for k in F.levels() for el in F.sampler(k)]


def prox_form_attracts(ymask, zmask, F, action, family):
    """Y attracts Z when semi_prox(Y, s Z) converges to zero along every
    divergent sequence of F, that is, every sequence whose k-th term is
    drawn from level k.

    Along the canonical sequence alone the forms differ at the truncation
    edge: late terms of the last block can satisfy "eventually" while its
    first terms still leave the star. So for each covering index the oracle
    walks the worst sequence, whose k-th term leaves the star of Y at that
    index whenever some term of level k does.
    """
    blocks = [[] for _ in F.levels()]
    for k, el in divergent_sequence(F):
        image = 0
        for z in iter_bits(zmask):
            image |= 1 << action.apply_fn(el, z)
        blocks[k].append(semi_prox(ymask, image, family))
    return all(
        converges_to_zero([
            next((v for v in block if not (v.mask >> i) & 1), block[0])
            for block in blocks
        ])
        for i in range(family.size)
    )


def convergence_trace(seq):
    """Per covering index: the first position after which it is always present."""
    if not seq:
        raise EmptyInput("convergence needs at least one element")
    fam = seq[0].family
    for e in seq:
        if e.family is not fam:
            raise FamilyMismatch("values belong to different families")
    out = []
    for i in range(fam.size):
        k0 = 0
        for k, e in enumerate(seq):
            if not (e.mask >> i) & 1:
                k0 = k + 1
        out.append(k0 if k0 < len(seq) else None)
    return out


def reference_star_mask(cov, ymask):
    """Union of the members of `cov` that meet the point set `ymask`."""
    s = 0
    for m in cov.members:
        if m & ymask:
            s |= m
    return s


def reference_closure_mask(family, ymask):
    """Intersection over every covering of the family of the star of `ymask`."""
    out = family.space.full_mask
    for cov in family.coverings:
        out &= reference_star_mask(cov, ymask)
    return out


def reference_star_basis(family) -> CheckResult:
    """The star-basis row by a scan of every (point, open that holds it)."""
    space = family.space
    opens = [1 << x for x in range(space.n)] if space.is_metric else [o for o in space.opens if o]
    return first_failure("star_basis", (
        f"no star of {space.points[x].pid} fits inside open {space.pids(o)}"
        for x in range(space.n)
        for o in opens
        if (o >> x) & 1 and not any(reference_star_mask(cov, 1 << x) & ~o == 0 for cov in family.coverings)
    ))


def reference_attracts(ymask, zmask, F, action, family):
    """(levels, failures): per covering index, the least filter level whose
    orbit of Z lies in the star of Y; where none does, the first
    (element, z, image) of the deepest level whose image leaves that star."""
    stars = [reference_star_mask(cov, ymask) for cov in family.coverings]
    orbits = [reference_orbit_mask(k, zmask, action, F) for k in F.levels()]
    levels, failures = {}, {}
    for i, star in enumerate(stars):
        found = next((k for k, orbit in enumerate(orbits) if orbit & ~star == 0), None)
        if found is not None:
            levels[i] = found
        else:
            failures[i] = next(
                (el, z, action.apply_fn(el, z))
                for el in F.sampler(F.depth)
                for z in iter_bits(zmask)
                if not (star >> action.apply_fn(el, z)) & 1
            )
    return levels, failures


def reference_absorption_level(ymask, zmask, F, action):
    """The least filter level whose orbit of Z, taken point by point, lies
    in Y, or None."""
    return next(
        (k for k in F.levels() if reference_orbit_mask(k, zmask, action, F) & ~ymask == 0),
        None,
    )


def reference_limit_witnesses(mask, seed, F, action, family):
    """Per point of `mask`, in index order, the first (element, seed point)
    over the deepest filter level and the points of `seed` whose image lies
    in the point's finest star."""
    stars = family.coverings[-1].point_star
    return {
        i: next(
            (el, src)
            for el in F.sampler(F.depth)
            for src in iter_bits(seed)
            if (stars[i] >> action.apply_fn(el, src)) & 1
        )
        for i in iter_bits(mask)
    }


def reference_limit_compact(testsets, F, action, family, cap):
    """The `limit_compact` row by its definition: per test set in name order,
    the OR over every filter level, read from level 0, of the coverings whose
    members cover the level orbit, taken point by point, with at most `cap`
    of them; the witness is the first set and the least covering that no
    level keeps."""

    def dropped():
        for name, m in sorted(testsets.items()):
            kept = 0
            for k in F.levels():
                orbit = reference_orbit_mask(k, m, action, F)
                for i, cov in enumerate(family.coverings):
                    if reference_coverable_within(orbit, cov.members, cap, DEFAULT_COVER_NODE_BUDGET):
                        kept |= 1 << i
            missing = [i for i in range(family.size) if not (kept >> i) & 1]
            if missing:
                yield f"{name}: no level keeps covering {missing[0]} in the member measure"

    return first_failure("limit_compact", dropped())


def reference_bounded(ymask, family):
    """Whether some covering holds every point of Y in the star, by its
    members, of every point of Y."""
    return any(
        all(ymask & ~reference_star_mask(cov, 1 << y) == 0 for y in iter_bits(ymask))
        for cov in family.coverings
    )


def reference_eventually_bounded(testsets, F, action, family):
    """The `eventually_bounded` row by its definition: per test set in name
    order, whether some filter level's orbit, taken point by point, is
    bounded; the witness is the first set whose orbits never are."""
    return first_failure("eventually_bounded", (
        f"orbit of {name} never becomes bounded"
        for name, m in sorted(testsets.items())
        if not any(
            reference_bounded(reference_orbit_mask(k, m, action, F), family) for k in F.levels()
        )
    ))


def reference_tail_cluster(tail, stars):
    """Whether some star of `stars` holds two of the tail images, counted
    with repeats."""
    return any(sum((star >> i) & 1 for i in tail) >= 2 for star in stars)


def reference_asymptotically_compact(testsets, F, action, family):
    """The `asymptotically_compact` row by the count scan: per test set in
    name order and sequence pattern, the images, taken with `apply_fn`, of
    the pattern's points under the first sampled element of the last
    `TAIL_WINDOW` filter levels must have a cluster in some finest star."""
    finest = family.coverings[-1]
    stars = [reference_star_mask(finest, 1 << x) for x in range(family.space.n)]
    pts = family.space.points
    levels = F.levels()[-TAIL_WINDOW:]

    def clusterless():
        for name, m in sorted(testsets.items()):
            for pname, xs in _sequence_patterns(m, F.depth + 1):
                tail = [action.apply_fn(F.sampler(k)[0], xs[k]) for k in levels]
                if not reference_tail_cluster(tail, stars):
                    trail = ",".join(pts[i].pid for i in tail)
                    yield f"{name}/{pname}: tail images [{trail}] admit no cluster"

    return first_failure("asymptotically_compact", clusterless())


def reference_slabs(model, arg, radius):
    """Distinct nonempty point masks of the value balls of `radius` at the
    argument `arg`, one around each value a function takes there, by squared
    distances in plain Python. A function's value at the argument is its
    slice of the point coordinates."""
    lo, hi = arg * model.value_dim, (arg + 1) * model.value_dim
    values = [p.coords[lo:hi] for p in model.space.points]
    r2 = radius * radius
    out = set()
    for center in set(values):
        m = 0
        for i, value in enumerate(values):
            if sum((x - y) ** 2 for x, y in zip(value, center)) < r2:
                m |= 1 << i
        if m:
            out.add(m)
    return sorted(out)


def reference_orbit_mask(level, ymask, action, F):
    """Union over the sampled elements of filter level `level` of the images
    of the points of `ymask`, taken point by point."""
    out = 0
    for el in F.sampler(level):
        for i in iter_bits(ymask):
            out |= 1 << action.apply_fn(el, i)
    return out


def reference_check_associativity(action, compose, elements):
    """The first (s, t, x) over the sampled elements and every point index
    with s(t(x)) != (s*t)(x), s*t being `compose(s, t)`, or None."""
    for s in elements:
        for t in elements:
            st = compose(s, t)
            for x in range(action.space.n):
                if action.apply_fn(s, action.apply_fn(t, x)) != action.apply_fn(st, x):
                    return (s, t, x)
    return None


def unbounded_coverable_within(target, candidates, cap, node_budget):
    """Can `target` be covered by at most `cap` candidates? Dominance
    pruning, then greedy, then branch-and-bound on the least-covered point,
    each branch cut only at depth `cap`."""
    if target == 0:
        return True
    cands = sorted({c & target for c in candidates if c & target}, key=lambda c: -c.bit_count())
    kept = []
    for c in cands:
        if not any(c & ~k == 0 for k in kept):
            kept.append(c)
    if not kept:
        return False
    union_all = 0
    for c in kept:
        union_all |= c
    if target & ~union_all:
        return False
    if cap >= len(kept):
        return True
    remaining, used = target, 0
    while remaining and used <= cap:
        best = max(kept, key=lambda c: (c & remaining).bit_count())
        remaining &= ~best
        used += 1
    if used <= cap:
        return True

    per_point = {i: [c for c in kept if (c >> i) & 1] for i in iter_bits(target)}
    nodes = 0

    def search(remaining, depth):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise CoverSearchBudgetExceeded(f"cover search exceeded {node_budget} nodes")
        if remaining == 0:
            return True
        if depth == cap:
            return False
        pivot = min(iter_bits(remaining), key=lambda i: len(per_point[i]))
        return any(search(remaining & ~c, depth + 1) for c in per_point[pivot])

    return search(target, 0)


def reference_check_hypotheses(
    F: FilterBasis,
    s_samples: Optional[Sequence] = None,
    enumeration_bound: int = 1000,
    max_level: Optional[int] = None,
) -> CheckList:
    """Exact translation-compatibility checks between the filter basis and the
    semigroup, per sampled element and level, using semigroup division.

    Levels are checked up to `max_level` (default: depth minus a headroom of 4)
    so that witness levels can exist inside the truncation.
    """
    sem = F.semigroup
    if s_samples is None:
        s_samples = sem.samples
    if max_level is None:
        max_level = max(0, F.depth - 4)
    levels = range(min(max_level, F.depth) + 1)

    def elements_of(j):
        if F.enumerate_level is not None:
            return tuple(b for b in F.enumerate_level(j) if b <= enumeration_bound)
        return F.sampler(j)

    def holds(name, s, k, j) -> bool:
        return all(_single_holds(name, F, s, k, b) for b in elements_of(j))

    checks = []
    for name in sorted(HYPOTHESIS_NAMES):
        counterexamples = []
        for s in s_samples:
            for k in levels:
                if not any(holds(name, s, k, j) for j in F.levels()):
                    # level 0 fails too, so it holds the first blocking element
                    blocker = next(
                        b for b in elements_of(0) if not _single_holds(name, F, s, k, b)
                    )
                    counterexamples.append(f"s={s!r} level={k} blocker={blocker!r}")
        witness = counterexamples[0] if counterexamples else None
        checks.append(CheckResult(name, not counterexamples, witness))
    return CheckList(checks=tuple(checks))


def _single_holds(name: str, F: FilterBasis, s, k, b) -> bool:
    sem = F.semigroup
    if name == "left_translate_into":
        return F.contains(sem.compose(s, b), k)
    if name == "right_translate_into":
        return F.contains(sem.compose(b, s), k)
    if name == "within_right_translate":
        a = sem.divide_right(b, s)
        return a is not None and F.contains(a, k)
    a = sem.divide_left(b, s)
    return a is not None and F.contains(a, k)


def reference_distance(space, i: int, j: int) -> float:
    """The euclidean distance of points i and j, from their coordinates."""
    a, b = space.points[i].coords, space.points[j].coords
    return math.hypot(*(float(x) - float(y) for x, y in zip(a, b)))


def reference_point_balls(space, radius: float) -> tuple[int, ...]:
    """Per point, in index order, the points strictly closer than `radius`."""
    return tuple(
        sum(1 << i for i in range(space.n) if reference_distance(space, c, i) < radius)
        for c in range(space.n)
    )


def reference_point_sequence_converges(seq, x, family) -> bool:
    """Eventually inside every star of x: per covering, the sequence must
    stay in the star from some position on."""
    for cov in family.coverings:
        star = cov.point_star[x]
        k0 = 0
        for k, p in enumerate(seq):
            if not (star >> p) & 1:
                k0 = k + 1
        if k0 >= len(seq):
            return False
    return True


def reference_undominated(cands: Sequence[int]) -> list[int]:
    """The sets of `cands` that no earlier kept set contains, each tested
    against every kept set."""
    kept: list[int] = []
    for c in cands:
        if not any(c & ~k == 0 for k in kept):
            kept.append(c)
    return kept


def _reference_greedy_cover(target: int, candidates: Sequence[int], cap: int) -> Optional[int]:
    remaining = target
    used = 0
    while remaining:
        best = max(candidates, key=lambda c: (c & remaining).bit_count())
        gain = best & remaining
        if not gain:
            return None
        remaining &= ~best
        used += 1
        if used > cap:
            return None
    return used


def reference_coverable_within(
    target: int,
    candidates: Sequence[int],
    cap: int,
    node_budget: int,
) -> bool:
    """Counting bound, quadratic dominance filter, greedy, then the bounded
    branch-and-bound on the least-covered point."""
    if target == 0:
        return True
    cands = sorted({c & target for c in candidates if c & target}, key=lambda c: -c.bit_count())
    if sum(c.bit_count() for c in cands[:max(cap, 0)]) < target.bit_count():
        return False
    # drop dominated candidates
    kept: list[int] = []
    for c in cands:
        if not any(c & ~k == 0 for k in kept):
            kept.append(c)
    union_all = 0
    for c in kept:
        union_all |= c
    if target & ~union_all:
        return False
    if cap >= len(kept):
        return True
    if _reference_greedy_cover(target, kept, cap) is not None:
        return True

    per_point = {i: [c for c in kept if (c >> i) & 1] for i in iter_bits(target)}
    widest = kept[0].bit_count()
    nodes = 0

    def search(remaining: int, depth: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise CoverSearchBudgetExceeded(
                f"cover search exceeded {node_budget} nodes"
            )
        if remaining == 0:
            return True
        if remaining.bit_count() > (cap - depth) * widest:
            return False
        pivot = min(iter_bits(remaining), key=lambda i: len(per_point[i]))
        for c in per_point[pivot]:
            if search(remaining & ~c, depth + 1):
                return True
        return False

    try:
        return search(target, 0)
    finally:
        del search  # it reaches itself through its closure cell: break that cycle


def zero_collection(family) -> CoverCollection:
    return CoverCollection(family, (1 << family.size) - 1)


def stars_of(p, family) -> list[tuple[int, ...]]:
    """The per-covering tables of a prox function: bit y of `stars[i][x]` is
    set when covering i lies in p(x, y, family)."""
    ix = range(family.space.n)
    vals = [[p(x, y, family).mask for y in ix] for x in ix]
    return [
        tuple(sum(1 << y for y in ix if vals[x][y] >> i & 1) for x in ix)
        for i in range(family.size)
    ]


def reference_proximity_suite(family, p) -> list[CheckResult]:
    """The proximity laws read off `p`, called once per ordered pair into the
    table `vals[x][y]` of collection masks; the rows, names and witnesses of
    `proximity_suite` on `stars_of(p, family)`."""
    space = family.space
    pts = space.points
    ix = range(len(pts))
    vals = [[p(x, y, family).mask for y in ix] for x in ix]
    zero = (1 << family.size) - 1
    out = []

    out.append(first_failure("prox_symmetry", (
        f"{pts[x].pid},{pts[y].pid}"
        for x, y in itertools.combinations(ix, 2)
        if vals[x][y] != vals[y][x]
    )))
    out.append(first_failure("prox_zero_at_diagonal", (
        pts[x].pid for x in ix if vals[x][x] != zero
    )))
    discrete = space.opens is None or all(1 << x in space.opens for x in ix)
    if discrete and family.admissibility_report.passed("star_basis"):
        out.append(first_failure("prox_separates_points", (
            f"{pts[x].pid},{pts[y].pid}"
            for x, y in itertools.combinations(ix, 2)
            if vals[x][y] == zero
        )))

    out += _reference_triangles(family, vals)

    sample = ix[:: max(1, len(pts) // 12)]
    out.append(first_failure("sequence_convergence_matches_prox", (
        f"x={pts[x].pid} seq via {pts[y].pid}"
        for x in sample
        for y in sample
        for seq in ([y] * 3 + [x] * 4, [x, y] * 4, [y] * 6)
        if point_sequence_converges(seq, x, family)
        != converges_to_zero([CoverCollection(family, vals[q][x]) for q in seq])
    )))
    return out


def walk_product(rows, cols):
    """The boolean matrix product by a bit walk: bit j of output row i is set
    iff rows[i] & cols[j] != 0."""
    return tuple(sum(1 << j for j, c in enumerate(cols) if r & c) for r in rows)


def walk_transpose(masks, width):
    """The transposed bit matrix by a bit walk: bit i of output j is bit j of
    masks[i]."""
    return tuple(sum(((m >> j) & 1) << i for i, m in enumerate(masks)) for j in range(width))


def _reference_triangles(family, vals) -> list[CheckResult]:
    # both triangle laws from per-covering tables regrouped by value: P[i][x]
    # the y with i in vals[x][y], cols[i][y] those x, Qk[i][x] the y whose
    # value holds the k-step coarsening of {i}
    pts = family.space.points
    n = len(pts)
    size = family.size

    def by_value(rows) -> list[dict[int, int]]:
        out = []
        for row in rows:
            g: dict[int, int] = {}
            for y, v in enumerate(row):
                g[v] = g.get(v, 0) | 1 << y
            out.append(g)
        return out

    row_groups = by_value(vals)
    values = {v for g in row_groups for v in g}

    def held(k: int) -> dict[int, int]:
        reach = family.reach_rows(k)
        return {v: sum(1 << i for i in range(size) if not reach[i] & ~v) for v in values}

    held1, held2 = held(1), held(2)

    def spread(groups, covers) -> list[list[int]]:
        T = [[0] * n for _ in range(size)]
        for x, g in enumerate(groups):
            for v, m in g.items():
                for i in iter_bits(covers(v)):
                    T[i][x] |= m
        return T

    P = spread(row_groups, lambda v: v)
    cols = spread(by_value(zip(*vals)), lambda v: v)
    Q1 = spread(row_groups, held1.__getitem__)
    Q2 = spread(row_groups, held2.__getitem__)
    R2 = [walk_product(P[i], cols[i]) for i in range(size)]
    R3 = [walk_product(R2[i], cols[i]) for i in range(size)]

    def one_violations():
        if not any(R2[i][x] & ~Q1[i][x] for i in range(size) for x in range(n)):
            return
        for z in range(n):
            for x in range(n):
                bad = 0
                for i in iter_bits(vals[x][z]):
                    bad |= P[i][z] & ~Q1[i][x]
                if bad:
                    y = (bad & -bad).bit_length() - 1
                    yield f"{pts[x].pid},{pts[y].pid} via {pts[z].pid}"

    def two_violations():
        for x in range(n):
            bad = 0
            for i in range(size):
                bad |= R3[i][x] & ~Q2[i][x]
            if bad:
                y = (bad & -bad).bit_length() - 1
                cut = ~held2[vals[x][y]]
                for a, b in itertools.product(range(n), repeat=2):
                    if vals[x][a] & vals[a][b] & vals[b][y] & cut:
                        yield ",".join(pts[q].pid for q in (x, y, a, b))
                        return

    return [
        first_failure("prox_triangle_1_intermediate", one_violations()),
        first_failure("prox_triangle_2_intermediate", two_violations()),
    ]
