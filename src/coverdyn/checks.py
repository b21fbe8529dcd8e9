"""Labeled property suites over a covering family: proximity laws, boundedness
laws, measure-of-noncompactness laws, and the nested-chain harness.

Each check returns a named pass/fail result with a witness on failure. The
proximity checks accept an injectable prox function so harness wiring can be
negative-controlled against a deliberately broken implementation.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional

import numpy as np

from .compactness import (
    cantor_kuratowski_check,
    default_cap,
    is_bounded,
    is_totally_bounded,
    member_measure,
    star_measure,
)
from .covering import (
    CHAIN,
    AdmissibleFamily,
    CheckResult,
    closure,
    first_failure,
    metric_chain_family,
    star,
)
from .proximity import (
    CoverCollection,
    coarsen,
    converges_to_zero,
    point_sequence_converges,
    precedes,
    prox,
    prox_to_set,
    semi_prox,
)
from .space import Point, line_grid


ProxFn = Callable[[Point, Point, AdmissibleFamily], CoverCollection]


def proximity_suite(
    family: AdmissibleFamily,
    prox_fn: Optional[ProxFn] = None,
    resolving: bool = True,
    triangle_exhaustive: bool = True,
    rng: Optional[random.Random] = None,
) -> list[CheckResult]:
    """Pairwise proximity laws: symmetry, zero at the diagonal, separation on
    resolving families, the coarsened triangle law (one and two intermediate
    points), and sequence convergence."""
    p = prox_fn or prox
    pts = family.space.points
    rng = rng or random.Random(0)
    out = []

    out.append(first_failure("prox_symmetry", (
        f"{x.pid},{y.pid}"
        for x, y in itertools.combinations(pts, 2)
        if p(x, y, family) != p(y, x, family)
    )))

    def off_zero_diagonal():
        for x in pts:
            v = p(x, x, family)
            if not v.is_zero or not precedes(CoverCollection.zero(family), v):
                yield x.pid

    out.append(first_failure("prox_zero_at_diagonal", off_zero_diagonal()))

    if resolving:
        out.append(first_failure("prox_separates_points", (
            f"{x.pid},{y.pid}"
            for x, y in itertools.combinations(pts, 2)
            if p(x, y, family).is_zero
        )))

    out.append(_triangle_check(family, p, n=1, exhaustive=triangle_exhaustive))
    out.append(_triangle_check(family, p, n=2, exhaustive=False, rng=rng))

    sample = pts[:: max(1, len(pts) // 12)]
    out.append(first_failure("sequence_convergence_matches_prox", (
        f"x={x.pid} seq via {y.pid}"
        for x in sample
        for y in sample
        for seq in ([y] * 3 + [x] * 4, [x, y] * 4, [y] * 6)
        if point_sequence_converges(seq, x, family)
        != converges_to_zero([p(q, x, family) for q in seq])
    )))
    return out


def _triangle_check(
    family: AdmissibleFamily,
    p: ProxFn,
    n: int,
    exhaustive: bool,
    rng: Optional[random.Random] = None,
) -> CheckResult:
    """prox(x, y) precedes the n-coarsening of the chained intersection
    through n intermediate points."""
    name = f"prox_triangle_{n}_intermediate"
    pts = family.space.points
    if n == 1 and exhaustive and family.kind == CHAIN:
        # chain values are prefixes, read as their finest level T[x, y]
        T = np.array([[p(x, y, family).mask.bit_length() - 1 for y in pts] for x in pts])
        co = np.array(
            [
                coarsen(CoverCollection.chain(family, t), 1).mask.bit_length() - 1
                for t in range(-1, family.depth + 1)
            ]
        )
        for z in range(len(pts)):
            mins = np.minimum.outer(T[:, z], T[z, :])
            rhs = co[mins + 1]
            bad = np.argwhere(T < rhs)
            if bad.size:
                x, y = map(int, bad[0])
                return CheckResult(name, False, f"{pts[x].pid},{pts[y].pid} via {pts[z].pid}")
        return CheckResult(name, True)

    if exhaustive:
        triples = itertools.product(pts, repeat=n + 2)
    else:
        rng = rng or random.Random(1)
        triples = [
            tuple(rng.choice(pts) for _ in range(n + 2)) for _ in range(400)
        ]

    def violations():
        for tup in triples:
            x, y, mids = tup[0], tup[1], tup[2:]
            chain_pts = (x,) + mids + (y,)
            acc = CoverCollection.zero(family)
            for a, b in zip(chain_pts, chain_pts[1:]):
                acc = acc & p(a, b, family)
            if not precedes(p(x, y, family), coarsen(acc, n)):
                yield ",".join(q.pid for q in tup)

    return first_failure(name, violations())


def closure_criteria_suite(
    family: AdmissibleFamily,
    rng: Optional[random.Random] = None,
    trials: int = 120,
    star_basis_holds: bool = True,
) -> list[CheckResult]:
    """Set-proximity laws against the family closure: membership criteria,
    closure invariance, and the convergent-sequence criterion.

    The two closure-invariance laws presuppose the star-basis axiom (they are
    proved for admissible families); they are skipped when it fails."""
    rng = rng or random.Random(2)
    space = family.space
    pts = space.points
    out = []

    def random_set():
        k = rng.randint(1, min(12, space.n))
        return frozenset(rng.sample(pts, k))

    sets = [random_set() for _ in range(trials)]
    if space.n <= 3:
        sets = [
            space.points_of(m) for m in range(1, space.full_mask + 1)
        ]

    def zero_off_closure():
        for A in sets:
            cl = closure(A, family)
            for x in pts:
                if prox_to_set(x, A, family).is_zero != (x in cl):
                    yield f"x={x.pid} A={sorted(q.pid for q in A)[:4]}"

    out.append(first_failure("prox_zero_iff_in_closure", zero_off_closure()))

    if star_basis_holds:

        def closure_moves_prox():
            for A in sets:
                cl = closure(A, family)
                for x in pts[:: max(1, len(pts) // 10)]:
                    if prox_to_set(x, A, family) != prox_to_set(x, cl, family):
                        yield f"x={x.pid}"

        out.append(first_failure("prox_to_closure_invariant", closure_moves_prox()))

        def closure_moves_semi_prox():
            for A in sets[:40]:
                cl = closure(A, family)
                B = frozenset(rng.sample(pts, rng.randint(1, min(6, space.n))))
                if semi_prox(A, B, family) != semi_prox(cl, B, family):
                    yield f"A={sorted(q.pid for q in A)[:4]}"

        out.append(first_failure("semi_prox_closure_invariant", closure_moves_semi_prox()))

    def zero_off_subset():
        for A in sets[:60]:
            cl = closure(A, family)
            B = frozenset(rng.sample(pts, rng.randint(1, min(6, space.n))))
            if semi_prox(A, B, family).is_zero != (B <= cl):
                yield f"A={sorted(q.pid for q in A)[:4]} B={sorted(q.pid for q in B)[:4]}"

    out.append(first_failure("semi_prox_zero_iff_subset_closure", zero_off_subset()))

    def criterion_misses():
        for A in sets[:40]:
            x = rng.choice(pts)
            walk = [rng.choice(pts) for _ in range(4)] + [x] * 4
            traj = [semi_prox(A, frozenset({q}), family) for q in walk]
            if converges_to_zero(traj) != (x in closure(A, family)):
                yield f"x={x.pid} A={sorted(q.pid for q in A)[:4]}"

    out.append(first_failure("convergent_sequence_closure_criterion", criterion_misses()))
    return out


def boundedness_suite(
    family: AdmissibleFamily,
    rng: Optional[random.Random] = None,
    trials: int = 100,
) -> list[CheckResult]:
    """Totally bounded sets are bounded; stars of bounded sets are bounded."""
    rng = rng or random.Random(3)
    space = family.space
    pts = space.points
    out = []

    def totally_bounded_unbounded():
        for _ in range(trials):
            Y = frozenset(rng.sample(pts, rng.randint(1, min(40, space.n))))
            if is_totally_bounded(Y, family) and not is_bounded(Y, family):
                yield str(sorted(q.pid for q in Y)[:4])

    out.append(first_failure("totally_bounded_implies_bounded", totally_bounded_unbounded()))

    def unbounded_stars():
        for _ in range(trials):
            Y = frozenset(rng.sample(pts, rng.randint(1, min(25, space.n))))
            if not is_bounded(Y, family):
                continue
            U = family.coverings[rng.randint(0, family.depth)]
            if not is_bounded(star(Y, U), family):
                yield str(sorted(q.pid for q in Y)[:4])

    out.append(first_failure("star_of_bounded_is_bounded", unbounded_stars()))
    return out


def measure_suite(
    family: AdmissibleFamily,
    cap: Optional[int] = None,
    rng: Optional[random.Random] = None,
    trials: int = 200,
) -> list[CheckResult]:
    """Star-measure laws: monotonicity, the capped union bracket (with exact
    equality at an ample cap), the closure bracket, and the member-cover
    bracket standing in for the auxiliary measure."""
    rng = rng or random.Random(4)
    space = family.space
    pts = space.points
    cap = cap if cap is not None else default_cap(space.n)
    out = []

    if space.n <= 3:
        pool = [space.points_of(m) for m in range(1, space.full_mask + 1)]
        pairs = [(A, B) for A in pool for B in pool]
    else:
        pool = [
            frozenset(rng.sample(pts, rng.randint(1, min(15, space.n))))
            for _ in range(trials)
        ]
        pairs = [(pool[i], pool[(i * 7 + 3) % len(pool)]) for i in range(len(pool))]

    out.append(first_failure("measure_monotone", (
        f"A={sorted(q.pid for q in A)[:3]}"
        for A, B in pairs
        if not precedes(star_measure(A, family, cap), star_measure(A | B, family, cap))
    )))
    head = pairs[: max(40, len(pairs) // 3)]

    def union_bracket_breaks():
        for A, B in head:
            u = star_measure(A | B, family, cap).index_set()
            meet = (
                star_measure(A, family, cap) & star_measure(B, family, cap)
            ).index_set()
            wide = star_measure(A | B, family, 2 * cap).index_set()
            ample = len(A | B)
            exact_l = star_measure(A | B, family, ample).index_set()
            exact_r = (
                star_measure(A, family, ample) & star_measure(B, family, ample)
            ).index_set()
            if not (u <= meet <= wide) or exact_l != exact_r:
                yield f"A={sorted(q.pid for q in A)[:3]} B={sorted(q.pid for q in B)[:3]}"

    out.append(first_failure("measure_union_bracket", union_bracket_breaks()))

    def closure_bracket_breaks():
        for A, _ in head:
            a = star_measure(A, family, cap)
            ac = star_measure(closure(A, family), family, cap)
            if not (precedes(a, ac) and precedes(ac, coarsen(a, 1))):
                yield f"A={sorted(q.pid for q in A)[:3]}"

    out.append(first_failure("measure_closure_bracket", closure_bracket_breaks()))

    def member_bracket_breaks():
        for A, _ in head:
            a = star_measure(A, family, cap)
            b = member_measure(A, family, cap)
            if not (precedes(a, b) and precedes(b, coarsen(a, 1))):
                yield f"A={sorted(q.pid for q in A)[:3]}"

    out.append(first_failure("measure_member_cover_bracket", member_bracket_breaks()))
    return out


def nested_chain_suite(
    family: AdmissibleFamily,
    cap: Optional[int] = None,
    rng: Optional[random.Random] = None,
    positives: int = 100,
    negatives: int = 100,
) -> list[CheckResult]:
    """Randomized nested-closed-chain harness: measure-converging chains must
    report nonempty intersections; starved-cap controls must report the unmet
    hypothesis and never claim the conclusion."""
    rng = rng or random.Random(5)
    space = family.space
    pts = space.points
    cap = cap if cap is not None else default_cap(space.n)
    out = []

    def positive_misses():
        for t in range(positives):
            center = rng.choice(pts)
            chain = []
            radius = 1.3
            for _ in range(rng.randint(3, 6)):
                m = 0
                for q in pts:
                    if space.dist is not None:
                        near = space.distance(center, q) < radius
                    else:
                        near = q == center
                    if near:
                        m |= 1 << q.index
                chain.append(space.points_of(family.closure_mask(m)))
                radius /= 4
            rep = cantor_kuratowski_check(chain, family, cap)
            if not rep.hypothesis_met or not rep.intersection:
                yield f"trial {t} center {center.pid}: {rep.claim}"
            elif center not in rep.intersection:
                yield f"trial {t}: intersection misses the center"

    out.append(first_failure("nested_chain_positive_runs", positive_misses()))

    def starved_claims():
        starved_cap = 2
        for t in range(negatives):
            stride = rng.randint(3, 5)
            offset = rng.randint(0, stride - 1)
            spread = frozenset(pts[offset::stride])
            spread = space.points_of(family.closure_mask(space.mask_of(spread)))
            rep = cantor_kuratowski_check([spread] * 4, family, starved_cap)
            if rep.hypothesis_met or rep.claim != "hypothesis not met":
                yield f"trial {t}: claimed {rep.claim!r} under a starved cap"

    out.append(first_failure("nested_chain_negative_controls", starved_claims()))
    return out


def grid_battery(
    seed: int = 0,
    cap: Optional[int] = None,
    chain_depth: int = 6,
    include_chain_harness: bool = True,
) -> list[CheckResult]:
    """The default verification battery: the 101-point unit grid with the
    quarter-ratio chain, plus every finite topology on up to three points."""
    rng = random.Random(seed)
    grid = line_grid(0.0, 1.0, 101)
    fam = metric_chain_family(grid, 2.0, chain_depth)
    results = []
    from .covering import verify_admissible

    results += [
        CheckResult(f"admissibility:{c.name}", c.passed, c.witness)
        for c in verify_admissible(fam).checks
    ]
    results += proximity_suite(fam, resolving=True, rng=rng)
    results += closure_criteria_suite(fam, rng=rng)
    results += boundedness_suite(fam, rng=rng)
    results += measure_suite(fam, cap=cap, rng=rng)
    if include_chain_harness:
        results += nested_chain_suite(fam, cap=cap, rng=rng)
    results += tiny_topology_battery(rng)
    return results


def tiny_topology_battery(rng: Optional[random.Random] = None) -> list[CheckResult]:
    """Exhaustive suites over the all-coverings family of every topology on
    one, two, and three points."""
    from .covering import finite_all_coverings_family
    from .space import Point as Pt, Space, enumerate_topologies

    rng = rng or random.Random(6)
    merged: dict[str, CheckResult] = {}

    def fold(results):
        for r in results:
            key = f"topologies<=3:{r.name}"
            if key not in merged or (merged[key].passed and not r.passed):
                merged[key] = CheckResult(key, r.passed, r.witness)

    for n in (1, 2, 3):
        for opens in enumerate_topologies(n):
            pts = tuple(Pt(pid=f"p{i}", index=i) for i in range(n))
            space = Space(points=pts, opens=opens)
            fam = finite_all_coverings_family(space)
            star_basis = fam.admissibility_report.check("star_basis").passed
            # separation presupposes a Hausdorff space: discrete, when finite
            hausdorff = all((1 << i) in opens for i in range(n))
            fold(proximity_suite(fam, resolving=star_basis and hausdorff, rng=rng))
            fold(
                closure_criteria_suite(
                    fam, rng=rng, trials=10, star_basis_holds=star_basis
                )
            )
            fold(boundedness_suite(fam, rng=rng, trials=10))
            fold(measure_suite(fam, cap=2, rng=rng, trials=10))
    return list(merged.values())
