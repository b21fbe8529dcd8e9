"""Open coverings, stars, the refinement calculus, and admissible covering families.

A covering is a finite set of nonempty member sets (bitmasks) whose union is
the whole space. Coverings are compared by refinement and double-refinement;
an admissible family is an indexed list of coverings. A chain (each level
double-refines its predecessor) is one way to build such a list, and
`chain_family` certifies it; every family has the same interface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .space import (
    CoverdynError,
    EmptyInput,
    Space,
    ball_rows,
    iter_bits,
    run_spans,
    run_stars,
    run_transpose,
    transpose_masks,
    union_rows,
)


class CoveringError(CoverdynError):
    """Base class for covering construction and comparison errors."""


class SpaceMismatch(CoveringError):
    """Two coverings (or a covering and a point set) live on different spaces."""


class DegenerateChain(CoveringError):
    """A requested chain could not be certified: some level fails to double-refine its predecessor."""


class TooManyOpens(CoveringError):
    """Exhaustive covering enumeration is guarded to small finite topologies."""


MAX_OPENS_FOR_ENUMERATION = 12


@dataclass(frozen=True, eq=False)
class Covering:
    """An open covering stored as explicit member bitmasks (deduplicated, sorted)."""

    space: Space
    members: tuple[int, ...]
    label: str

    @cached_property
    def _spans(self) -> Optional[tuple[tuple[int, int], ...]]:
        """Each member's index interval when every member is a run of ones, as
        every ball of a line grid is; else None. The two tables below are
        then sweeps over the intervals."""
        return run_spans(self.members)

    @cached_property
    def point_rows(self) -> tuple[int, ...]:
        """For each point index, the mask of the indices of members containing it
        (the transpose of `members`)."""
        if self._spans is None:
            return transpose_masks(self.members, self.space.n)
        return run_transpose(self._spans, self.space.n)

    @cached_property
    def point_star(self) -> tuple[int, ...]:
        """For each point index, the union of members containing it, the
        members that its point row picks."""
        if self._spans is None:
            return tuple([union_rows(self.members, row) for row in self.point_rows])
        return run_stars(self._spans, self.space.n)

    def star_mask(self, ymask: int) -> int:
        """Union of the members meeting the point set `ymask`: the union of
        the point stars of its points, since a member meets Y exactly when it
        holds some y in Y."""
        if ymask == 0:
            raise EmptyInput("star of the empty set is undefined")
        return union_rows(self.point_star, ymask)


def make_covering_masks(space: Space, masks: Iterable[int], label: str = "") -> Covering:
    """Validate and build a covering from member masks."""
    members = tuple(sorted(set(masks)))
    if not members or members[0] == 0:
        raise EmptyInput("covering members must be nonempty")
    union = 0
    for m in members:
        union |= m
    if union != space.full_mask:
        missing = space.pids(space.full_mask & ~union)
        raise CoveringError(f"members do not cover the space; missing {missing[:4]}")
    if space.opens is not None:
        opens = set(space.opens)
        for m in members:
            if m not in opens:
                raise CoveringError(f"member {space.pids(m)} is not open")
    return Covering(space=space, members=members, label=label)


def _check_same_space(a: Covering, b: Covering) -> None:
    if a.space is not b.space:
        raise SpaceMismatch("coverings belong to different spaces")


def relation_rows(
    sources: Sequence[Covering], targets: Sequence[Covering]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Refinement and double-refinement rows: bit j of row i is set when
    sources[i] refines (double-refines) targets[j].

    Both relations reduce to one container test: does some member of the
    target U hold the point set s? The only index is U's `point_rows`. A
    member that holds s holds its lowest and its highest point, so the
    members in both of their rows are the only candidates, and none is
    missed. Each candidate is confirmed by a subset test, because a member
    may hold both ends of s and miss a point between them; where members are
    index intervals, as balls on a line grid are, the first candidate holds
    s. A set wider than U's widest member fits nowhere.

    Three kernels read that members are index intervals. `ball_rows` finds
    each ball of increasing 1-D coordinates by its two ends; a covering whose
    members are all intervals takes its point rows and point stars from
    sweeps over them (`Covering._spans`); and here the first candidate holds
    s. The first two test the fact before they rely on it, and this test is
    correct without it. An exact tie predicate for a line grid's balls keeps
    all three: each ball stays one interval, and only its ends may move.

    V refines U when every member of V fits U. The distinct member sets of
    all sources are tested once per target into one mask, and V refines U
    when that mask holds all of V's sets. Only there is double refinement
    tested: any two intersecting members of V must fit U together. Two such
    members share a point x and lie in the star of x in V, so a star that
    fits U settles every pair that meets at x. Where the star of x does not
    fit, the pairs of V-members holding x are tested one by one, and the
    first pair whose union does not fit decides that V does not
    double-refine U. The stars are tested per source, and each distinct star
    once per target.
    """
    for c in itertools.chain(sources, targets):
        _check_same_space(c, sources[0])
    index: dict[int, int] = {}
    for V in sources:
        for m in V.members:
            index.setdefault(m, len(index))
    own = [sum(1 << index[m] for m in V.members) for V in sources]
    refine = [0] * len(sources)
    double = [0] * len(sources)
    for j, U in enumerate(targets):
        fits = _container_test(U)
        held = sum(1 << k for k, s in enumerate(index) if fits(s))
        star_fits: dict[int, bool] = {}
        for i, V in enumerate(sources):
            if own[i] & ~held:
                continue
            refine[i] |= 1 << j
            for x, star in enumerate(V.point_star):
                ok = star_fits.get(star)
                if ok is None:
                    ok = star_fits[star] = fits(star)
                if not ok and not all(
                    fits(V.members[a] | V.members[b])
                    for a, b in itertools.combinations(iter_bits(V.point_rows[x]), 2)
                ):
                    break
            else:
                double[i] |= 1 << j
    return tuple(refine), tuple(double)


def _container_test(U: Covering) -> Callable[[int], bool]:
    """The test "some member of U holds the point set s"."""
    members, rows = U.members, U.point_rows
    widest = max(u.bit_count() for u in members)

    def fits(s: int) -> bool:
        if s.bit_count() > widest:
            return False
        candidates = rows[(s & -s).bit_length() - 1] & rows[s.bit_length() - 1]
        while candidates:
            u = members[(candidates & -candidates).bit_length() - 1]
            if u | s == u:
                return True
            candidates &= candidates - 1
        return False

    return fits


def refines(V: Covering, U: Covering) -> bool:
    """True iff every member of V is contained in some member of U."""
    return relation_rows((V,), (U,))[0][0] == 1


def double_refines(V: Covering, U: Covering) -> bool:
    """True iff any two intersecting members of V fit jointly inside one member of U."""
    return relation_rows((V,), (U,))[1][0] == 1


@dataclass(frozen=True, eq=False)
class AdmissibleFamily:
    """An indexed list of coverings of one space.

    Chains are indexed coarse-to-fine and certified by `chain_family`: the
    certificate is the sub-diagonal of `double_refine_rows`. Both relation
    rows come from one `relation_rows` call over the family's coverings, made
    on first read; it looks sets up in each covering's point rows and tests
    its point stars, the tables that the star and closure queries read too.
    Other families are arbitrary listings (typically every open covering of a
    finite topology).
    """

    space: Space
    coverings: tuple[Covering, ...]

    def __post_init__(self):
        if not self.coverings:
            raise EmptyInput("a family needs at least one covering")
        for c in self.coverings:
            if c.space is not self.space:
                raise SpaceMismatch("family coverings must share one space")

    @property
    def depth(self) -> int:
        return len(self.coverings) - 1

    @property
    def size(self) -> int:
        return len(self.coverings)

    @cached_property
    def _relations(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return relation_rows(self.coverings, self.coverings)

    @property
    def refine_rows(self) -> tuple[int, ...]:
        """Bit j of row i: covering i refines covering j."""
        return self._relations[0]

    @property
    def double_refine_rows(self) -> tuple[int, ...]:
        """Bit j of row i: covering i double-refines covering j."""
        return self._relations[1]

    def prefix(self, level: int) -> AdmissibleFamily:
        """The family of levels 0..level.

        Its relation rows are the top-left block of this family's rows, so
        nothing is recomputed; a prefix of a certified chain is certified.
        """
        keep = (1 << (level + 1)) - 1
        fam = AdmissibleFamily(space=self.space, coverings=self.coverings[: level + 1])
        fam.__dict__["_relations"] = tuple(
            tuple(row & keep for row in rows[: level + 1]) for rows in self._relations
        )
        return fam

    @cached_property
    def admissibility_report(self) -> CheckList:
        """The family's axiom and repleteness report, computed on first read."""
        return verify_admissible(self)

    def reach_rows(self, n: int) -> tuple[int, ...]:
        """Bit j of row i: an n-step double-refinement chain inside the family
        leads from covering i to covering j."""
        cache = self.__dict__.setdefault("_reach_rows", {})
        if n not in cache:
            D = self.double_refine_rows
            if n == 1:
                cache[n] = D
            else:
                cache[n] = tuple([union_rows(D, prev) for prev in self.reach_rows(n - 1)])
        return cache[n]

    def stars(self, ymask: int) -> tuple[int, ...]:
        """The star of `ymask` at every covering, in covering order, cached
        per set for the life of the family. The memo holds int tuples only,
        so it ties the family into no reference cycle; `closure_mask` does
        not fill it."""
        cache = self.__dict__.setdefault("_stars_cache", {})
        out = cache.get(ymask)
        if out is None:
            out = cache[ymask] = tuple([cov.star_mask(ymask) for cov in self.coverings])
        return out

    @cached_property
    def _minimal(self) -> tuple[Covering, ...]:
        # the last covering of each refinement-minimal class: j is minimal
        # when every covering that refines j is refined by j, and its class
        # is then the set of coverings that refine it
        R = self.refine_rows
        T = transpose_masks(R, self.size)
        return tuple(
            cov for j, cov in enumerate(self.coverings)
            if T[j] & ~R[j] == 0 and T[j] >> (j + 1) == 0
        )

    def closure_mask(self, ymask: int) -> int:
        """Family closure: the intersection of the stars of `ymask` over every covering,
        cached per set for the life of the family.

        Any base of the uniformity that the family generates gives the same
        closure, and the refinement-minimal coverings are one: when V refines
        U, a member of V that meets the set lies in a member of U that meets
        it, so the star at V lies in the star at U. Coverings that refine each
        other have equal stars. So the intersection reads one star per
        refinement-minimal class, from the relation rows; on a chain that is
        the finest level alone.

        On finite-topology spaces whose family satisfies the star-basis axiom this
        equals the topological closure computed from the opens alone.
        """
        cache = self.__dict__.setdefault("_closure_cache", {})
        out = cache.get(ymask)
        if out is None:
            if ymask == 0:
                raise EmptyInput("closure of the empty set is undefined")
            out = self.space.full_mask
            for cov in self._minimal:
                out &= cov.star_mask(ymask)
            cache[ymask] = out
        return out


def chain_family(space: Space, coverings: Sequence[Covering]) -> AdmissibleFamily:
    """Assemble a chain family, certifying every consecutive double-refinement;
    raises `DegenerateChain` at the first that fails."""
    fam = AdmissibleFamily(space=space, coverings=tuple(coverings))
    covs, rows = fam.coverings, fam.double_refine_rows
    for i in range(1, len(covs)):
        if not (rows[i] >> (i - 1)) & 1:
            raise DegenerateChain(
                f"level {i} ({covs[i].label}) does not double-refine "
                f"level {i - 1} ({covs[i - 1].label})"
            )
    return fam


# radius ratio of consecutive levels of a metric chain
CHAIN_RATIO = 0.25


def metric_chain_family(space: Space, eps0: float, depth: int) -> AdmissibleFamily:
    """Chain of ball coverings with radii eps0 * CHAIN_RATIO**i, one ball per
    sample point; every level's balls come from one `ball_rows` pass over the
    point coordinates, one comparison per level.

    The ratio 1/4 guarantees the double-refinement certificate: two
    intersecting radius-r balls have centers within 2r, so their union lies in
    the radius-4r ball around either center. Repeated member sets at
    consecutive levels are allowed (deep levels of a finite sample saturate).
    """
    space.require_metric()
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    coords = [p.coords for p in space.points]
    radii = [eps0 * CHAIN_RATIO**i for i in range(depth + 1)]
    coverings = [
        make_covering_masks(space, balls, label=f"balls[r={r:.8g}]")
        for r, balls in zip(radii, ball_rows(coords, coords, radii))
    ]
    return chain_family(space, coverings)


def enumerate_open_coverings(space: Space) -> list[Covering]:
    """All coverings by open sets of a finite-topology space (guarded)."""
    if space.opens is None:
        raise CoveringError("covering enumeration needs a finite topology")
    nonempty = [o for o in space.opens if o != 0]
    if len(nonempty) > MAX_OPENS_FOR_ENUMERATION:
        raise TooManyOpens(
            f"{len(nonempty)} opens exceeds the enumeration guard "
            f"({MAX_OPENS_FOR_ENUMERATION})"
        )
    out = []
    full = space.full_mask
    for r in range(1, len(nonempty) + 1):
        for combo in itertools.combinations(nonempty, r):
            union = 0
            for m in combo:
                union |= m
            if union != full:
                continue
            out.append(make_covering_masks(space, combo, label=f"cov{len(out)}"))
    return out


def finite_all_coverings_family(space: Space) -> AdmissibleFamily:
    """The family of all open coverings of a finite topology."""
    return AdmissibleFamily(space=space, coverings=tuple(enumerate_open_coverings(space)))


@dataclass(frozen=True)
class CheckResult:
    """A named pass/fail verdict with an optional witness."""

    name: str
    passed: bool
    witness: Optional[str] = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "verdict": "pass" if self.passed else "fail"}
        if self.witness:
            d["witness"] = self.witness
        return d


def first_failure(name: str, witnesses: Iterable[str]) -> CheckResult:
    """Pass when `witnesses` yields nothing; otherwise fail with its first item.

    The iterable is read no further than that item, so a check that draws
    random numbers as it goes draws none after its first counterexample.
    """
    witness = next(iter(witnesses), None)
    return CheckResult(name, witness is None, witness)


@dataclass(frozen=True)
class CheckList:
    """An ordered tuple of named pass/fail results, looked up by name: the one
    verdict type of every report."""

    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def passed(self, name: str) -> bool:
        return self.check(name).passed

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks]}


def verify_admissible(family: AdmissibleFamily) -> CheckList:
    """Check the admissibility axioms and both repleteness conditions, with witnesses.

    Axioms: (1) every covering admits a double-refinement in the family;
    (2) point stars resolve every target open (star basis); (3) common
    refinements exist. Repleteness: stars of each point exhaust the space,
    and every pair admits a common double-coarsening in the family.
    Both pair relations are symmetric, so each unordered pair is tested once:
    the first failing pair in row-major order always has i <= j.

    The star basis tests each point against its least open alone: {x} on a
    metric space, which resolves to the discrete topology, and the AND of
    the opens that hold x on a finite topology. Every open that holds x
    contains it, so a star that fits it fits them all; and as an int it is
    the least of them, so it is the open that a scan of every open would
    name first.
    """
    space = family.space
    covs = family.coverings
    L = len(covs)
    D = family.double_refine_rows
    R = family.refine_rows
    least = [1 << x if space.is_metric else space.full_mask for x in range(space.n)]
    for o in space.opens or ():
        for x in iter_bits(o):
            least[x] &= o

    refined = 0
    for row in D:
        refined |= row

    def unexhausted():
        for x in range(space.n):
            u = 0
            for cov in covs:
                u |= cov.point_star[x]
            if u != space.full_mask:
                yield f"stars of {space.points[x].pid} do not exhaust the space"

    return CheckList(checks=(
        first_failure("double_refinement_exists", (
            f"no double-refinement of {covs[j].label or j}"
            for j in range(L)
            if not (refined >> j) & 1
        )),
        first_failure("star_basis", (
            f"no star of {space.points[x].pid} fits inside open {space.pids(least[x])}"
            for x in range(space.n)
            if not any(cov.point_star[x] & ~least[x] == 0 for cov in covs)
        )),
        first_failure("common_refinement", (
            f"no common refinement of ({i},{j})"
            for i in range(L)
            for j in range(i, L)
            if not any((row >> i) & (row >> j) & 1 for row in R)
        )),
        first_failure("stars_exhaust_space", unexhausted()),
        first_failure("common_double_coarsening", (
            f"no common double-coarsening of ({i},{j})"
            for i in range(L)
            for j in range(i, L)
            if not D[i] & D[j]
        )),
    ))
