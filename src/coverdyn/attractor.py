"""Construction and verification of global and global-uniform attractors.

Set equality "at resolution" means mutual one-sided proximity domination at
the family's finest index; the closed and invariant checks use it because a
snapped finite model cannot separate an attractor from its last pre-snap
iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .compactness import is_bounded, star_measure
from .covering import AdmissibleFamily, CheckList, CheckResult, first_failure
from .dynamics import (
    Action,
    FilterBasis,
    TaxonomyReport,
    attracts,
    check_dissipativity,
    check_hypotheses,
    omega_limit,
    prolongational_limit,
    verify_eventual_compactness,
)
from .proximity import sets_equal_at_resolution, subset_at_resolution
from .space import CoverdynError, EmptyInput, Point


class UnboundedTestset(CoverdynError):
    """Candidate construction requires bounded test sets."""


@dataclass(frozen=True)
class AttractorVerdict(CheckList):
    candidate: tuple[str, ...]  # sorted point ids
    kind: str  # "global", "global-uniform", "both", "neither"

    def to_dict(self) -> dict:
        return {
            "candidate": list(self.candidate),
            "kind": self.kind,
            "checks": [c.to_dict() for c in self.checks],
        }


def construct_candidate(
    testsets: dict,
    F: FilterBasis,
    action: Action,
    family: AdmissibleFamily,
) -> int:
    """Union of the limit sets of the supplied bounded test sets."""
    if not testsets:
        raise EmptyInput("candidate construction needs test sets")
    out = 0
    for name in sorted(testsets):
        ymask = testsets[name]
        if not is_bounded(ymask, family):
            raise UnboundedTestset(f"test set {name!r} is not bounded")
        out |= omega_limit(ymask, F, action, family).mask
    return out


def _core_checks(
    cmask: int,
    action: Action,
    family: AdmissibleFamily,
    cap: int,
    elements: Sequence,
) -> list[CheckResult]:
    checks = [CheckResult("nonempty", bool(cmask))]
    if not cmask:
        checks.append(CheckResult("closed", False, "empty candidate"))
        checks.append(CheckResult("compact", False, "empty candidate"))
        checks.append(CheckResult("invariant", False, "empty candidate"))
        return checks

    cl = family.closure_mask(cmask)
    closed_ok = sets_equal_at_resolution(cl, cmask, family)
    checks.append(
        CheckResult(
            "closed",
            closed_ok,
            None
            if closed_ok
            else f"closure adds {action.space.pids(cl & ~cmask)[:4]}",
        )
    )

    compact_ok = star_measure(cmask, family, cap).is_zero
    checks.append(
        CheckResult(
            "compact",
            compact_ok,
            None if compact_ok else f"no star cover within cap {cap}",
        )
    )

    checks.append(first_failure("invariant", (
        f"element {s!r} moves the candidate"
        for s in elements
        if not sets_equal_at_resolution(action.image_mask(s, cmask), cmask, family)
    )))
    return checks


def verify_global(
    candidate: int,
    testsets: dict[str, int],
    F: FilterBasis,
    action: Action,
    family: AdmissibleFamily,
    cap: int,
) -> AttractorVerdict:
    """Nonempty, closed, compact, invariant, and attracts every test set."""
    checks = _core_checks(candidate, action, family, cap, F.sampler(0)[:4])

    def unattracted():
        if not candidate:
            yield "empty candidate"
            return
        for name in sorted(testsets):
            rep = attracts(candidate, testsets[name], F, action, family)
            if not rep.attracted:
                idx, (el, z, img) = sorted(rep.failures.items())[0]
                yield (
                    f"{name}: covering {idx} never absorbed; witness element "
                    f"{el!r} sends {z.pid} to {img.pid}"
                )

    checks.append(first_failure("attracts", unattracted()))
    passed = all(c.passed for c in checks)
    return AttractorVerdict(
        candidate=tuple(action.space.pids(candidate)),
        checks=tuple(checks),
        kind="global" if passed else "neither",
    )


def verify_uniform(
    candidate: int,
    points_sample: Sequence[Point],
    F: FilterBasis,
    action: Action,
    family: AdmissibleFamily,
    cap: int,
) -> AttractorVerdict:
    """Compact invariant set containing every sampled prolongational limit set,
    each of which must be nonempty."""
    checks = _core_checks(candidate, action, family, cap, F.sampler(0)[:4])

    def limits_outside():
        if not candidate:
            yield "empty candidate"
            return
        for x in points_sample:
            rep = prolongational_limit(x, F, action, family)
            if not rep.mask:
                yield f"prolongational limit of {x.pid} is empty"
            elif not subset_at_resolution(rep.mask, candidate, family):
                yield f"limit of {x.pid} leaves the candidate: {rep.pids()[:4]}"

    checks.append(first_failure("prolongational_limits_inside", limits_outside()))
    passed = all(c.passed for c in checks)
    return AttractorVerdict(
        candidate=tuple(action.space.pids(candidate)),
        checks=tuple(checks),
        kind="global-uniform" if passed else "neither",
    )


KINDS = ("both", "global-only", "global-uniform-only", "neither")


def combine_kinds(glob: AttractorVerdict, unif: AttractorVerdict) -> str:
    if glob.all_passed and unif.all_passed:
        return "both"
    if glob.all_passed:
        return "global-only"
    if unif.all_passed:
        return "global-uniform-only"
    return "neither"


@dataclass(frozen=True)
class UniquenessReport:
    equal: bool
    contained_invariants: dict
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.equal and not self.violations

    def to_dict(self) -> dict:
        return {
            "equal": self.equal,
            "contained_invariants": dict(self.contained_invariants),
            "violations": list(self.violations),
        }


def check_uniqueness(
    A1: int,
    A2: int,
    invariant_sets: dict[str, int],
    family: AdmissibleFamily,
) -> UniquenessReport:
    """Two verified attractors coincide at resolution, and every supplied
    bounded invariant set is contained in the first."""
    equal = sets_equal_at_resolution(A1, A2, family)
    contained, violations = {}, []
    for name in sorted(invariant_sets):
        inside = subset_at_resolution(invariant_sets[name], A1, family)
        contained[name] = inside
        if not inside:
            violations.append(f"bounded invariant set {name!r} escapes the attractor")
    if not equal:
        violations.append("the two candidates differ at resolution")
    return UniquenessReport(
        equal=equal,
        contained_invariants=contained,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Forward and (hypothesis-gated) converse links between the two notions."""

    global_verdict: AttractorVerdict
    uniform_verdict: AttractorVerdict
    taxonomy: TaxonomyReport
    hypothesis_ok: dict
    eventually_compact: CheckResult
    forward_holds: bool
    converse_applicable: bool
    converse_holds: Optional[bool]
    failing_converse_hypothesis: Optional[str]
    kind: str

    def to_dict(self) -> dict:
        return {
            "global": self.global_verdict.to_dict(),
            "uniform": self.uniform_verdict.to_dict(),
            "taxonomy": self.taxonomy.to_dict(),
            "hypotheses": dict(self.hypothesis_ok),
            "eventually_compact": self.eventually_compact.to_dict(),
            "forward_holds": self.forward_holds,
            "converse_applicable": self.converse_applicable,
            "converse_holds": self.converse_holds,
            "failing_converse_hypothesis": self.failing_converse_hypothesis,
            "kind": self.kind,
        }


def check_equivalence(scenario, candidate: Optional[int] = None) -> EquivalenceReport:
    """Run both verifications plus the taxonomy and hypothesis checks on a
    scenario, and relate them: a global attractor must verify uniformly; the
    converse is asserted only when its hypotheses all tested true, and when it
    cannot apply the blocking hypothesis is named."""
    if candidate is None:
        candidate = scenario.attractor_points()
    F, action, family = scenario.filter_basis, scenario.action, scenario.family
    cap = scenario.declared.cap
    glob = verify_global(candidate, scenario.testsets, F, action, family, cap)
    unif = verify_uniform(candidate, scenario.points_sample, F, action, family, cap)
    taxonomy = check_dissipativity(
        action,
        F,
        family,
        scenario.testsets,
        cap=cap,
        points_sample=scenario.points_sample,
        absorb_candidate=scenario.testsets.get(scenario.declared.absorbing_name),
    )
    hyp = check_hypotheses(F, max_level=max(0, F.depth - 6))
    if scenario.declared.compact_witness is not None:
        evc = verify_eventual_compactness(
            action, scenario.declared.compact_witness, scenario.testsets, family, cap
        )
    else:
        evc = CheckResult("eventually_compact", False, "not declared")

    forward_holds = (not glob.all_passed) or unif.all_passed
    converse_hyps = {
        "within_right_translate": hyp.verdicts["within_right_translate"],
        "eventually_compact": evc.passed,
        "asymptotically_compact": taxonomy.passed("asymptotically_compact"),
    }
    converse_applicable = all(converse_hyps.values())
    converse_holds = None
    failing = None
    if converse_applicable:
        converse_holds = (not unif.all_passed) or glob.all_passed
    else:
        failing = next(k for k, v in sorted(converse_hyps.items()) if not v)
    return EquivalenceReport(
        global_verdict=glob,
        uniform_verdict=unif,
        taxonomy=taxonomy,
        hypothesis_ok=dict(hyp.verdicts),
        eventually_compact=evc,
        forward_holds=forward_holds,
        converse_applicable=converse_applicable,
        converse_holds=converse_holds,
        failing_converse_hypothesis=failing,
        kind=combine_kinds(glob, unif),
    )
