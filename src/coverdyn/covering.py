"""Open coverings, stars, the refinement calculus, and admissible covering families.

A covering is a finite set of nonempty member sets (bitmasks) whose union is
the whole space. Coverings are compared by refinement and double-refinement;
an admissible family is an indexed list of coverings that is either a chain
(each level double-refines its predecessor) or a finite directed collection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .space import CoverdynError, EmptyInput, Point, Space, ball_mask, iter_bits


class CoveringError(CoverdynError):
    """Base class for covering construction and comparison errors."""


class SpaceMismatch(CoveringError):
    """Two coverings (or a covering and a point set) live on different spaces."""


class DegenerateChain(CoveringError):
    """A requested chain could not be certified: some level fails to double-refine its predecessor."""


class TooManyOpens(CoveringError):
    """Exhaustive covering enumeration is guarded to small finite topologies."""


class ChainKindUnsupported(CoveringError):
    """The operation is defined for finite-kind families only."""


MAX_OPENS_FOR_ENUMERATION = 12


@dataclass(frozen=True, eq=False)
class Covering:
    """An open covering stored as explicit member bitmasks (deduplicated, sorted)."""

    space: Space
    members: tuple[int, ...]
    label: str = ""

    @cached_property
    def point_members(self) -> tuple[tuple[int, ...], ...]:
        """For each point index, the indices of members containing it."""
        per = [[] for _ in range(self.space.n)]
        for mi, m in enumerate(self.members):
            for b in iter_bits(m):
                per[b].append(mi)
        return tuple(tuple(v) for v in per)

    @cached_property
    def point_rows(self) -> tuple[int, ...]:
        """For each point index, the mask of the indices of members containing it."""
        return tuple(sum(1 << mi for mi in mis) for mis in self.point_members)

    @cached_property
    def point_star(self) -> tuple[int, ...]:
        """For each point index, the union of members containing it."""
        out = []
        for i in range(self.space.n):
            s = 0
            for mi in self.point_members[i]:
                s |= self.members[mi]
            out.append(s)
        return tuple(out)

    def star_mask(self, ymask: int) -> int:
        if ymask == 0:
            raise EmptyInput("star of the empty set is undefined")
        s = 0
        for m in self.members:
            if m & ymask:
                s |= m
        return s

    def __repr__(self) -> str:
        return f"Covering({self.label or len(self.members)})"


def make_covering(
    space: Space, member_sets: Iterable[Iterable[Point]], label: str = ""
) -> Covering:
    """Validate and build a covering from explicit member point sets."""
    masks = sorted({space.mask_of(m) for m in member_sets})
    return make_covering_masks(space, masks, label)


def make_covering_masks(space: Space, masks: Iterable[int], label: str = "") -> Covering:
    members = tuple(sorted(set(masks)))
    if not members or members[0] == 0:
        raise EmptyInput("covering members must be nonempty")
    union = 0
    for m in members:
        union |= m
    if union != space.full_mask:
        missing = space.point_list(space.full_mask & ~union)
        raise CoveringError(f"members do not cover the space; missing {missing[:4]}")
    if space.opens is not None:
        opens = set(space.opens)
        for m in members:
            if m not in opens:
                raise CoveringError(
                    f"member {sorted(p.pid for p in space.points_of(m))} is not open"
                )
    return Covering(space=space, members=members, label=label)


def _check_same_space(a: Covering, b: Covering) -> None:
    if a.space is not b.space:
        raise SpaceMismatch("coverings belong to different spaces")


def star(Y: frozenset[Point] | set[Point], U: Covering) -> frozenset[Point]:
    """Union of covering members meeting Y."""
    mask = U.space.mask_of(Y)
    return U.space.points_of(U.star_mask(mask))


def refines(V: Covering, U: Covering) -> bool:
    """True iff every member of V is contained in some member of U."""
    _check_same_space(V, U)
    for v in V.members:
        anchor = (v & -v).bit_length() - 1
        if not any(v & ~U.members[mi] == 0 for mi in U.point_members[anchor]):
            return False
    return True


def double_refines(V: Covering, U: Covering) -> bool:
    """True iff any two intersecting members of V fit jointly inside one member of U.

    Row form: `meets` is the mask of the V-members that meet member a (a's
    own bit included), and `inside[k]` the mask of the V-members contained in
    U-member k. The union of a and b lies in U-member k exactly when both do,
    so a passes when `meets` lies inside the union of `inside[k]` over the
    U-members k that contain a. `inside[k]` is built only for those k, once
    per call and only until `meets` is covered; the test stops at the first
    member that fails.
    """
    _check_same_space(V, U)
    rows = V.point_rows
    stars = V.point_star
    inside: dict[int, int] = {}
    for va in V.members:
        meets = 0
        for p in iter_bits(va):
            meets |= rows[p]
        anchor = (va & -va).bit_length() - 1
        fits = 0
        for k in U.point_members[anchor]:
            uk = U.members[k]
            if va & ~uk:
                continue
            if k not in inside:
                # members meeting uk, less those that reach a point outside it
                near = reach = out = 0
                for p in iter_bits(uk):
                    near |= rows[p]
                    reach |= stars[p]
                for p in iter_bits(reach & ~uk):
                    out |= rows[p]
                inside[k] = near & ~out
            fits |= inside[k]
            if not meets & ~fits:
                break
        if meets & ~fits:
            return False
    return True


def n_refines(V: Covering, U: Covering, n: int, pool: Sequence[Covering] = ()) -> bool:
    """True iff a length-n double-refinement chain from V to U exists with
    intermediates drawn from `pool` (searched exhaustively)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    _check_same_space(V, U)
    if n == 1:
        return double_refines(V, U)
    frontier = [W for W in pool if double_refines(V, W)]
    for _ in range(n - 2):
        if not frontier:
            return False
        nxt = []
        seen = set()
        for W in pool:
            if id(W) in seen:
                continue
            if any(double_refines(F, W) for F in frontier):
                nxt.append(W)
                seen.add(id(W))
        frontier = nxt
    return any(double_refines(F, U) for F in frontier)


CHAIN = "chain"
FINITE = "finite"


@dataclass(frozen=True, eq=False)
class AdmissibleFamily:
    """An indexed family of coverings: a double-refinement chain or a finite directed set.

    Chain families are indexed coarse-to-fine, and construction certifies
    that each level double-refines its predecessor (`DegenerateChain`
    otherwise), so no uncertified chain exists. Finite families are arbitrary
    listings (typically every open covering of a finite topology).

    Chain relation rows follow from that certificate below the diagonal:
    double-refinement implies refinement, and refinement is transitive, so
    level i double-refines and refines every level j < i. Those bits are set
    without a test; every entry with j >= i is tested directly, since deep
    levels of a finite sample can repeat and make such entries true.
    """

    space: Space
    kind: str
    coverings: tuple[Covering, ...]
    label: str = ""

    def __post_init__(self):
        if self.kind not in (CHAIN, FINITE):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not self.coverings:
            raise EmptyInput("a family needs at least one covering")
        for c in self.coverings:
            if c.space is not self.space:
                raise SpaceMismatch("family coverings must share one space")
        if self.kind == CHAIN:
            covs = self.coverings
            for i in range(1, len(covs)):
                if not double_refines(covs[i], covs[i - 1]):
                    raise DegenerateChain(
                        f"level {i} ({covs[i].label}) does not double-refine "
                        f"level {i - 1} ({covs[i - 1].label})"
                    )

    @property
    def depth(self) -> int:
        return len(self.coverings) - 1

    @property
    def size(self) -> int:
        return len(self.coverings)

    @property
    def finest_index(self) -> int:
        """Index of the designated finest covering (last level for chains)."""
        return self.depth

    def _relation_rows(self, relation) -> tuple[int, ...]:
        covs = self.coverings
        rows = []
        for i, v in enumerate(covs):
            # a chain's bits j < i come from its certificate (class docstring)
            start = i if self.kind == CHAIN else 0
            row = (1 << start) - 1
            for j in range(start, len(covs)):
                if relation(v, covs[j]):
                    row |= 1 << j
            rows.append(row)
        return tuple(rows)

    @cached_property
    def refine_rows(self) -> tuple[int, ...]:
        """Bit j of row i: covering i refines covering j."""
        return self._relation_rows(refines)

    @cached_property
    def double_refine_rows(self) -> tuple[int, ...]:
        """Bit j of row i: covering i double-refines covering j."""
        return self._relation_rows(double_refines)

    @cached_property
    def admissibility_report(self) -> AxiomReport:
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
                rows = []
                for prev in self.reach_rows(n - 1):
                    row = 0
                    for j in iter_bits(prev):
                        row |= D[j]
                    rows.append(row)
                cache[n] = tuple(rows)
        return cache[n]

    def closure_mask(self, ymask: int) -> int:
        if ymask == 0:
            raise EmptyInput("closure of the empty set is undefined")
        out = self.space.full_mask
        for cov in self.coverings:
            out &= cov.star_mask(ymask)
        return out


def chain_family(
    space: Space, coverings: Sequence[Covering], label: str = ""
) -> AdmissibleFamily:
    """Assemble a chain family; construction certifies every consecutive
    double-refinement and raises `DegenerateChain` at the first that fails."""
    return AdmissibleFamily(space=space, kind=CHAIN, coverings=tuple(coverings), label=label)


def metric_chain_family(
    space: Space, eps0: float, depth: int, ratio: float = 0.25
) -> AdmissibleFamily:
    """Chain of ball coverings with radii eps0 * ratio**i, one ball per sample point.

    The default ratio 1/4 guarantees the double-refinement certificate: two
    intersecting radius-r balls have centers within 2r, so their union lies in
    the radius-4r ball around either center. Repeated member sets at
    consecutive levels are allowed (deep levels of a finite sample saturate).
    """
    space.require_metric()
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not 0 < ratio < 1:
        raise ValueError("ratio must be in (0, 1)")
    coverings = []
    for i in range(depth + 1):
        r = eps0 * ratio**i
        masks = {ball_mask(space, p, r) for p in space.points}
        coverings.append(make_covering_masks(space, masks, label=f"balls[r={r:.8g}]"))
    return chain_family(space, coverings, label=f"metric-chain(eps0={eps0:g},depth={depth})")


def enumerate_open_coverings(space: Space) -> list[Covering]:
    """All coverings by open sets of a finite-topology space (guarded)."""
    if space.opens is None:
        raise ChainKindUnsupported("covering enumeration needs a finite topology")
    nonempty = [o for o in space.opens if o != 0]
    if len(nonempty) > MAX_OPENS_FOR_ENUMERATION:
        raise TooManyOpens(
            f"{len(nonempty)} opens exceeds the enumeration guard "
            f"({MAX_OPENS_FOR_ENUMERATION})"
        )
    out = []
    seen = set()
    full = space.full_mask
    for r in range(1, len(nonempty) + 1):
        for combo in itertools.combinations(nonempty, r):
            union = 0
            for m in combo:
                union |= m
            if union != full:
                continue
            key = tuple(sorted(combo))
            if key in seen:
                continue
            seen.add(key)
            out.append(make_covering_masks(space, key, label=f"cov{len(out)}"))
    return out


def finite_all_coverings_family(space: Space) -> AdmissibleFamily:
    """The family of all open coverings of a finite topology."""
    coverings = enumerate_open_coverings(space)
    return AdmissibleFamily(
        space=space, kind=FINITE, coverings=tuple(coverings), label="all-open-coverings"
    )


def closure(
    Y: frozenset[Point] | set[Point], family: AdmissibleFamily
) -> frozenset[Point]:
    """Family closure: the intersection of the stars of Y over every covering.

    On finite-topology spaces whose family satisfies the star-basis axiom this
    equals the topological closure computed from the opens alone.
    """
    mask = family.space.mask_of(Y)
    return family.space.points_of(family.closure_mask(mask))


def replete_closure(family: AdmissibleFamily) -> AdmissibleFamily:
    """Extend a finite-kind family with every open covering coarsened by a member."""
    if family.kind != FINITE:
        raise ChainKindUnsupported("replete closure is defined for finite-kind families")
    universe = enumerate_open_coverings(family.space)
    have = {c.members for c in family.coverings}
    extra = []
    for cand in universe:
        if cand.members in have:
            continue
        if any(refines(u, cand) for u in family.coverings):
            extra.append(cand)
            have.add(cand.members)
    return AdmissibleFamily(
        space=family.space,
        kind=FINITE,
        coverings=tuple(family.coverings) + tuple(extra),
        label=family.label + "+replete",
    )


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
    """An ordered tuple of named pass/fail results, looked up by name."""

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


@dataclass(frozen=True)
class AxiomReport(CheckList):
    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _target_opens(family: AdmissibleFamily) -> list[int]:
    space = family.space
    if space.opens is not None:
        return [o for o in space.opens if o != 0]
    # metric discretizations resolve to the discrete topology
    return [1 << i for i in range(space.n)]


def verify_admissible(family: AdmissibleFamily) -> AxiomReport:
    """Check the admissibility axioms and both repleteness conditions, with witnesses.

    Axioms: (1) every covering admits a double-refinement in the family;
    (2) point stars resolve every target open (star basis); (3) common
    refinements exist. Repleteness: stars of each point exhaust the space,
    and every pair admits a common double-coarsening in the family.
    Both pair relations are symmetric, so each unordered pair is tested once:
    the first failing pair in row-major order always has i <= j.
    """
    space = family.space
    covs = family.coverings
    L = len(covs)
    D = family.double_refine_rows
    R = family.refine_rows
    targets = _target_opens(family)

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

    return AxiomReport(checks=(
        first_failure("double_refinement_exists", (
            f"no double-refinement of {covs[j].label or j}"
            for j in range(L)
            if not (refined >> j) & 1
        )),
        first_failure("star_basis", (
            f"no star of {space.points[x].pid} fits inside open "
            f"{sorted(p.pid for p in space.points_of(o))}"
            for x in range(space.n)
            for o in targets
            if (o >> x) & 1 and not any(cov.point_star[x] & ~o == 0 for cov in covs)
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
