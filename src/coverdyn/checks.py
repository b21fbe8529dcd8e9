"""Labeled property suites over a covering family: proximity laws, boundedness
laws, measure-of-noncompactness laws, and the nested-chain harness.

Each check returns a named pass/fail result with a witness on failure. Points
are indices, drawn from `range(n)`; only witnesses name them by id. The
proximity laws read per-covering tables (bit y of `stars[i][x]` is set when
covering i lies in prox(x, y)); injecting broken tables negative-controls the
harness wiring.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from typing import Optional, Sequence

from .compactness import (
    cantor_kuratowski_check,
    default_cap,
    is_bounded,
    is_totally_bounded,
    member_measure,
    star_measure,
)
from .covering import (
    AdmissibleFamily,
    CheckResult,
    finite_all_coverings_family,
    first_failure,
    metric_chain_family,
)
from .proximity import (
    CoverCollection,
    coarsen,
    converges_to_zero,
    point_sequence_converges,
    precedes,
    prox_to_set,
    semi_prox,
)
from .space import (
    ball_rows,
    build_finite_topology,
    enumerate_topologies,
    iter_bits,
    line_grid,
    transpose_masks,
    union_rows,
)


def _star_basis(family: AdmissibleFamily) -> bool:
    return family.admissibility_report.passed("star_basis")


def proximity_suite(
    family: AdmissibleFamily, stars: Optional[Sequence[Sequence[int]]] = None
) -> list[CheckResult]:
    """Pairwise proximity laws: symmetry, zero at the diagonal, separation
    when the family resolves points (it passes the star-basis axiom and
    every singleton is open, so the finite space is Hausdorff; metric spaces
    resolve to the discrete topology), the coarsened triangle law (one and
    two intermediate points, both checked on every triple and quadruple),
    and sequence convergence.

    Every law reads the per-covering tables `stars`: bit y of `stars[i][x]`
    is set when covering i lies in prox(x, y). By default they are the
    coverings' point stars, the tables that `prox` reads. No law draws
    random numbers.
    """
    space = family.space
    pts = space.points
    n, size = space.n, family.size
    P = stars if stars is not None else [cov.point_star for cov in family.coverings]
    ix = range(n)
    # cols[i][y]: the x with covering i in prox(x, y), from one transpose of
    # the tables laid side by side, for the symmetry row
    T = transpose_masks([sum(P[i][x] << i * n for i in range(size)) for x in ix], size * n)
    cols = [T[i * n : (i + 1) * n] for i in range(size)]

    @functools.cache
    def val(x: int, y: int) -> int:
        # the collection mask of prox(x, y)
        return sum(1 << i for i in range(size) if P[i][x] >> y & 1)

    # meet[x]: the y with prox(x, y) the whole family; asym[x]: the y with
    # prox(x, y) != prox(y, x)
    meet = [functools.reduce(operator.and_, (rows[x] for rows in P), space.full_mask) for x in ix]
    asym = [functools.reduce(operator.or_, (P[i][x] ^ cols[i][x] for i in range(size)), 0) for x in ix]

    def pairs_above(rows):
        # per row x, the pair (x, y) of the least y > x in it
        for x, row in enumerate(rows):
            row >>= x + 1
            if row:
                yield f"{pts[x].pid},{pts[x + (row & -row).bit_length()].pid}"

    out = [
        first_failure("prox_symmetry", pairs_above(asym)),
        first_failure("prox_zero_at_diagonal", (pts[x].pid for x in ix if not meet[x] >> x & 1)),
    ]
    # separation presupposes a Hausdorff space: discrete, when finite
    discrete = space.opens is None or all(1 << x in space.opens for x in ix)
    if discrete and _star_basis(family):
        out.append(first_failure("prox_separates_points", pairs_above(meet)))

    out += _triangles(family, P, val)

    sample = ix[:: max(1, n // 12)]
    out.append(first_failure("sequence_convergence_matches_prox", (
        f"x={pts[x].pid} seq via {pts[y].pid}"
        for x in sample
        for y in sample
        for seq in ([y] * 3 + [x] * 4, [x, y] * 4, [y] * 6)
        if point_sequence_converges(seq, x, family)
        != converges_to_zero([CoverCollection(family, val(q, x)) for q in seq])
    )))
    return out


def _triangles(family: AdmissibleFamily, P, val) -> list[CheckResult]:
    """The coarsened triangle law with one and with two intermediate points,
    each on every tuple of points, read off the tables of `proximity_suite`:
    P[i][x] is the mask of the y with covering i in prox(x, y), and val(x, y)
    the collection mask of prox(x, y).

    One intermediate: prox(x, y) precedes the coarsening of
    prox(x, z) & prox(z, y); the witness is the first failure in (z, x, y)
    order. Two intermediates: prox(x, y) precedes the 2-step coarsening of
    prox(x, a) & prox(a, b) & prox(b, y); the witness is the least failing
    (x, y, a, b).

    Coarsening ORs the rows of the collection's members, so both laws split
    per covering i: when i lies in every hop of a path from x to y,
    prox(x, y) must hold the coarsening of {i}. R2[i] and R3[i] compose P[i]
    with itself two and three times (`_hops`), once per distinct table (the
    tables of a battery's tiny families repeat): R3[i][x] is the mask of the
    y that x reaches in three hops of P[i]. Qk[i][x] is the mask of the y
    whose prox(x, y) holds `family.reach_rows(k)[i]`, the k-step coarsening
    of {i}: the AND of P[j][x] over its members j. The k-intermediate law
    holds iff R(k+1)[i][x] & ~Qk[i][x] is empty for every i and x.
    """
    pts = family.space.points
    n = len(pts)
    size = family.size

    def held(k: int) -> list[list[int]]:
        # Qk, one AND of the tables per distinct reach row
        memo = {}
        for r in set(family.reach_rows(k)):
            q = [(1 << n) - 1] * n
            for j in iter_bits(r):
                q = [a & b for a, b in zip(q, P[j])]
            memo[r] = q
        return [memo[r] for r in family.reach_rows(k)]

    Q1, Q2 = held(1), held(2)
    tables = [tuple(P[i]) for i in range(size)]
    composed = {table: _hops(table) for table in dict.fromkeys(tables)}
    R2, R3 = zip(*(composed[table] for table in tables))

    def table_fault(law: str, x: int, bad: int):
        y = (bad & -bad).bit_length() - 1
        return RuntimeError(
            f"internal error: the hop tables fail the {law} law at "
            f"({pts[x].pid},{pts[y].pid}) and the witness scan finds no path"
        )

    def one_violations():
        # R2 decides the verdict; the (z, x) scan only orders the witness
        flagged = next((
            (x, R2[i][x] & ~Q1[i][x])
            for i in range(size) for x in range(n) if R2[i][x] & ~Q1[i][x]
        ), None)
        if flagged is None:
            return
        for z in range(n):
            for x in range(n):
                bad = 0
                for i in iter_bits(val(x, z)):
                    bad |= P[i][z] & ~Q1[i][x]
                if bad:
                    y = (bad & -bad).bit_length() - 1
                    yield f"{pts[x].pid},{pts[y].pid} via {pts[z].pid}"
        raise table_fault("one-intermediate", *flagged)

    def two_violations():
        reach2 = family.reach_rows(2)
        for x in range(n):
            bad = 0
            for i in range(size):
                bad |= R3[i][x] & ~Q2[i][x]
            if bad:
                y = (bad & -bad).bit_length() - 1
                # the coverings whose 2-step coarsening prox(x, y) does not hold
                cut = sum(1 << i for i in range(size) if reach2[i] & ~val(x, y))
                path = next((
                    (a, b) for a, b in itertools.product(range(n), repeat=2)
                    if val(x, a) & val(a, b) & val(b, y) & cut
                ), None)
                if path is None:
                    raise table_fault("two-intermediate", x, bad)
                yield ",".join(pts[q].pid for q in (x, y, *path))

    return [
        first_failure("prox_triangle_1_intermediate", one_violations()),
        first_failure("prox_triangle_2_intermediate", two_violations()),
    ]


def _hops(table: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two- and three-hop tables of a prox table: row x of each is the
    union of the rows of `table` over row x of the hop before, the y that x
    reaches in two and in three hops."""
    r2 = tuple([union_rows(table, row) for row in table])
    return r2, tuple([union_rows(table, row) for row in r2])


def closure_criteria_suite(
    family: AdmissibleFamily, rng: random.Random, trials: int = 120
) -> list[CheckResult]:
    """Set-proximity laws against the family closure: membership criteria,
    closure invariance, and the convergent-sequence criterion.

    The two closure-invariance laws presuppose the star-basis axiom (they are
    proved for admissible families); they are skipped when the family fails
    it."""
    space = family.space
    ix = range(space.n)
    out = []

    def random_set():
        k = rng.randint(1, min(12, space.n))
        return space.mask_of(rng.sample(ix, k))

    if space.n <= 3:
        sets = list(range(1, space.full_mask + 1))
    else:
        sets = [random_set() for _ in range(trials)]

    def zero_off_closure():
        for A in sets:
            cl = family.closure_mask(A)
            for x in ix:
                if prox_to_set(x, A, family).is_zero != bool((cl >> x) & 1):
                    yield f"x={space.points[x].pid} A={space.pids(A)[:4]}"

    out.append(first_failure("prox_zero_iff_in_closure", zero_off_closure()))

    if _star_basis(family):

        def closure_moves_prox():
            for A in sets:
                cl = family.closure_mask(A)
                for x in ix[:: max(1, space.n // 10)]:
                    if prox_to_set(x, A, family) != prox_to_set(x, cl, family):
                        yield f"x={space.points[x].pid}"

        out.append(first_failure("prox_to_closure_invariant", closure_moves_prox()))

        def closure_moves_semi_prox():
            for A in sets[:40]:
                cl = family.closure_mask(A)
                B = space.mask_of(rng.sample(ix, rng.randint(1, min(6, space.n))))
                if semi_prox(A, B, family) != semi_prox(cl, B, family):
                    yield f"A={space.pids(A)[:4]}"

        out.append(first_failure("semi_prox_closure_invariant", closure_moves_semi_prox()))

    def zero_off_subset():
        for A in sets[:60]:
            cl = family.closure_mask(A)
            B = space.mask_of(rng.sample(ix, rng.randint(1, min(6, space.n))))
            if semi_prox(A, B, family).is_zero != (B & ~cl == 0):
                yield f"A={space.pids(A)[:4]} B={space.pids(B)[:4]}"

    out.append(first_failure("semi_prox_zero_iff_subset_closure", zero_off_subset()))

    def criterion_misses():
        for A in sets[:40]:
            x = rng.choice(ix)
            walk = [rng.choice(ix) for _ in range(4)] + [x] * 4
            traj = [semi_prox(A, 1 << q, family) for q in walk]
            if converges_to_zero(traj) != bool((family.closure_mask(A) >> x) & 1):
                yield f"x={space.points[x].pid} A={space.pids(A)[:4]}"

    out.append(first_failure("convergent_sequence_closure_criterion", criterion_misses()))
    return out


def boundedness_suite(
    family: AdmissibleFamily, rng: random.Random, trials: int = 100
) -> list[CheckResult]:
    """Totally bounded sets are bounded; stars of bounded sets are bounded."""
    space = family.space
    ix = range(space.n)
    out = []

    def totally_bounded_unbounded():
        for _ in range(trials):
            Y = space.mask_of(rng.sample(ix, rng.randint(1, min(40, space.n))))
            if is_totally_bounded(Y, family) and not is_bounded(Y, family):
                yield str(space.pids(Y)[:4])

    out.append(first_failure("totally_bounded_implies_bounded", totally_bounded_unbounded()))

    def unbounded_stars():
        for _ in range(trials):
            Y = space.mask_of(rng.sample(ix, rng.randint(1, min(25, space.n))))
            if not is_bounded(Y, family):
                continue
            U = family.coverings[rng.randint(0, family.depth)]
            if not is_bounded(U.star_mask(Y), family):
                yield str(space.pids(Y)[:4])

    out.append(first_failure("star_of_bounded_is_bounded", unbounded_stars()))
    return out


def measure_suite(
    family: AdmissibleFamily,
    rng: random.Random,
    cap: Optional[int] = None,
    trials: int = 200,
) -> list[CheckResult]:
    """Star-measure laws: monotonicity, the capped union bracket (with exact
    equality at an ample cap), the closure bracket, and the member-cover
    bracket standing in for the auxiliary measure."""
    space = family.space
    ix = range(space.n)
    cap = cap if cap is not None else default_cap(space.n)
    out = []

    if space.n <= 3:
        pool = list(range(1, space.full_mask + 1))
        pairs = [(A, B) for A in pool for B in pool]
    else:
        pool = [
            space.mask_of(rng.sample(ix, rng.randint(1, min(15, space.n))))
            for _ in range(trials)
        ]
        pairs = [(pool[i], pool[(i * 7 + 3) % len(pool)]) for i in range(len(pool))]

    out.append(first_failure("measure_monotone", (
        f"A={space.pids(A)[:3]}"
        for A, B in pairs
        if not precedes(star_measure(A, family, cap), star_measure(A | B, family, cap))
    )))
    head = pairs[: max(40, len(pairs) // 3)]

    def union_bracket_breaks():
        for A, B in head:
            u = star_measure(A | B, family, cap)
            meet = star_measure(A, family, cap) & star_measure(B, family, cap)
            wide = star_measure(A | B, family, 2 * cap)
            ample = (A | B).bit_count()
            exact_l = star_measure(A | B, family, ample)
            exact_r = star_measure(A, family, ample) & star_measure(B, family, ample)
            if not (precedes(meet, u) and precedes(wide, meet)) or exact_l != exact_r:
                yield f"A={space.pids(A)[:3]} B={space.pids(B)[:3]}"

    out.append(first_failure("measure_union_bracket", union_bracket_breaks()))

    def closure_bracket_breaks():
        for A, _ in head:
            a = star_measure(A, family, cap)
            ac = star_measure(family.closure_mask(A), family, cap)
            if not (precedes(a, ac) and precedes(ac, coarsen(a, 1))):
                yield f"A={space.pids(A)[:3]}"

    out.append(first_failure("measure_closure_bracket", closure_bracket_breaks()))

    def member_bracket_breaks():
        for A, _ in head:
            a = star_measure(A, family, cap)
            b = member_measure(A, family, cap)
            if not (precedes(a, b) and precedes(b, coarsen(a, 1))):
                yield f"A={space.pids(A)[:3]}"

    out.append(first_failure("measure_member_cover_bracket", member_bracket_breaks()))
    return out


# trials of each kind in the nested-chain harness
NESTED_CHAIN_TRIALS = 100


def nested_chain_suite(
    family: AdmissibleFamily, rng: random.Random, cap: Optional[int] = None
) -> list[CheckResult]:
    """Randomized nested-closed-chain harness on a metric space: closures of
    shrinking balls about one center must report nonempty intersections;
    starved-cap controls must report the unmet hypothesis and never claim the
    conclusion."""
    space = family.space
    space.require_metric()
    ix = range(space.n)
    cap = cap if cap is not None else default_cap(space.n)
    out = []
    coords = [p.coords for p in space.points]
    # every center's ball at the radii of a chain of at most 6 links
    balls = ball_rows(coords, coords, [1.3 / 4**k for k in range(6)])

    def positive_misses():
        for t in range(NESTED_CHAIN_TRIALS):
            center = rng.choice(ix)
            chain = [family.closure_mask(balls[k][center]) for k in range(rng.randint(3, 6))]
            rep = cantor_kuratowski_check(chain, family, cap)
            if not rep.hypothesis_met:
                yield f"trial {t} center {space.points[center].pid}: hypothesis not met"
            # the chain decreases, so its intersection is its last element
            elif not (chain[-1] >> center) & 1:
                yield f"trial {t}: intersection misses the center"

    out.append(first_failure("nested_chain_positive_runs", positive_misses()))

    def starved_claims():
        starved_cap = 2
        for t in range(NESTED_CHAIN_TRIALS):
            stride = rng.randint(3, 5)
            offset = rng.randint(0, stride - 1)
            spread = family.closure_mask(space.mask_of(ix[offset::stride]))
            rep = cantor_kuratowski_check([spread] * 4, family, starved_cap)
            if rep.hypothesis_met:
                yield f"trial {t}: claimed 'nonempty compact intersection' under a starved cap"

    out.append(first_failure("nested_chain_negative_controls", starved_claims()))
    return out


BATTERY_DEPTH = 6


def battery_family() -> AdmissibleFamily:
    """The default battery's family: the 101-point unit grid with the
    quarter-ratio chain of `BATTERY_DEPTH` refinements."""
    return metric_chain_family(line_grid(0.0, 1.0, 101), 2.0, BATTERY_DEPTH)


def grid_battery(seed: int = 0, cap: Optional[int] = None) -> list[CheckResult]:
    """The default verification battery: `battery_family()`, plus every
    finite topology on up to three points."""
    rng = random.Random(seed)
    fam = battery_family()
    results = [
        CheckResult(f"admissibility:{c.name}", c.passed, c.witness)
        for c in fam.admissibility_report.checks
    ]
    results += proximity_suite(fam)
    results += closure_criteria_suite(fam, rng=rng)
    results += boundedness_suite(fam, rng=rng)
    results += measure_suite(fam, cap=cap, rng=rng)
    results += nested_chain_suite(fam, cap=cap, rng=rng)
    results += tiny_topology_battery(rng)
    return results


def tiny_topology_battery(rng: random.Random) -> list[CheckResult]:
    """Exhaustive suites over the all-coverings family of every topology on
    one, two, and three points."""
    merged: dict[str, CheckResult] = {}

    def fold(results):
        for r in results:
            key = f"topologies<=3:{r.name}"
            if key not in merged or (merged[key].passed and not r.passed):
                merged[key] = CheckResult(key, r.passed, r.witness)

    for n in (1, 2, 3):
        for opens in enumerate_topologies(n):
            ids = [f"p{i}" for i in range(n)]
            space = build_finite_topology(ids, ([ids[i] for i in iter_bits(o)] for o in opens))
            fam = finite_all_coverings_family(space)
            fold(proximity_suite(fam))
            fold(closure_criteria_suite(fam, rng=rng))
            fold(boundedness_suite(fam, rng=rng, trials=10))
            fold(measure_suite(fam, cap=2, rng=rng))
    return list(merged.values())
