"""Reference forms of verdicts, kept as test oracles.

`attracts` decides attraction by a level search per covering index. The
proximity form below decides it the other way the theory states it: the
one-sided proximity of the images of Z to Y converges to zero along every
divergent net. It computes every image point by point with `apply_fn`, so
it shares neither the image rows nor the orbit masks with the level search.

`convergence_trace` is truncated convergence of a collection sequence by
its definition: per covering index, the first position after which the index
is always present. `converges_to_zero` reads the last element instead.

`reference_star_mask` is the star by its definition, the union of the
members that meet the set, with no point stars and no memo.

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
the former loop of `funcspace._slabs`: per center, every table value whose
squared euclidean distance is below the squared radius.

`reference_orbit_mask` is the level orbit of a set by its definition, every
sampled element applied to every point with `apply_fn`, with no image rows
and no memo.

`reference_check_associativity` is the triple loop over (s, t, x) that
`Action.check_associativity` replaced, calling `apply_fn` point by point: it
returns the first (s, t, x) with s(t(x)) != (s*t)(x), x a point index.

`reference_point_balls` is the per-point loop that built a metric chain
level before `ball_masks` compared the whole distance matrix at once: one
comparison of a center's distance row per point, read back bit by bit.

`reference_point_sequence_converges` is truncated convergence of a point
sequence by its definition, one loop per covering: the first position after
which the sequence stays in the star of x must exist. `point_sequence_converges`
reads the last term against the memoised closure of {x} instead.

`metric_axiom_violation` checks a distance matrix against the metric axioms
by the exact O(n^3) loop, with the relative triangle slack that the
`_pairwise_distances` docstring derives. `build_metric_space` checks none of
them, because its norm distances satisfy them by construction.
"""

from typing import Optional, Sequence

import numpy as np

from coverdyn.compactness import CoverSearchBudgetExceeded
from coverdyn.covering import CheckList, CheckResult
from coverdyn.dynamics import HYPOTHESIS_NAMES, FilterBasis
from coverdyn.proximity import FamilyMismatch, converges_to_zero, semi_prox
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


def reference_slabs(model, c):
    """Distinct nonempty point masks of the per-center value balls of the
    constraint `c`, by squared distances in plain Python."""
    r2 = c.radius * c.radius
    out = set()
    for center in c.centers:
        m = 0
        for i, t in enumerate(model.tables):
            if sum((x - y) ** 2 for x, y in zip(t[c.arg_index], center)) < r2:
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


def reference_check_associativity(action, elements):
    """The first (s, t, x) over the sampled elements and every point index
    with s(t(x)) != (s*t)(x), or None."""
    for s in elements:
        for t in elements:
            st = action.semigroup.compose(s, t)
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
        s_samples = sem.sample(4)
    if max_level is None:
        max_level = max(0, F.depth - 4)
    levels = range(min(max_level, F.depth) + 1)

    def elements_of(j):
        if F.enumerate_level is not None:
            return F.enumerate_level(j, enumeration_bound)
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
        a = sem.divide_right(b, s) if sem.divide_right else None
        return a is not None and F.contains(a, k)
    a = sem.divide_left(b, s) if sem.divide_left else None
    return a is not None and F.contains(a, k)


def reference_point_balls(space, radius: float) -> tuple[int, ...]:
    """Per point, in index order, the points strictly closer than `radius`."""
    out = []
    for c in range(space.n):
        mask = 0
        for i in np.nonzero(space.dist[c] < radius)[0]:
            mask |= 1 << int(i)
        out.append(mask)
    return tuple(out)


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
