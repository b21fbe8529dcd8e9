"""Construction and verification of global and global-uniform attractors.

Set equality "at resolution" means mutual one-sided proximity domination at
the family's finest index; the closed and invariant checks use it because a
snapped finite model cannot separate an attractor from its last pre-snap
iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .compactness import is_bounded, star_measure
from .covering import AdmissibleFamily, CheckList, CheckResult, first_failure
from .dynamics import (
    Action,
    FilterBasis,
    attracts,
    check_dissipativity,
    check_hypotheses,
    omega_limit,
    prolongational_limit,
    verify_eventual_compactness,
)
from .proximity import sets_equal_at_resolution, subset_at_resolution
from .space import CoverdynError, EmptyInput, iter_bits


class UnboundedTestset(CoverdynError):
    """Candidate construction requires bounded test sets."""


@dataclass(frozen=True)
class AttractorVerdict(CheckList):
    candidate: tuple[str, ...]  # sorted point ids

    def to_dict(self) -> dict:
        return {"candidate": list(self.candidate), **super().to_dict()}


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
        out |= omega_limit(ymask, F, action, family)
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
    checks = _core_checks(candidate, action, family, cap, F.probes())

    def unattracted():
        if not candidate:
            yield "empty candidate"
        else:
            for name in sorted(testsets):
                zmask = testsets[name]
                held = attracts(candidate, zmask, F, action, family)
                if not held.is_zero:
                    # the deepest orbit leaves the star of the least covering
                    # missed, so one of that level's images does
                    idx = next(i for i in range(family.size) if not (held.mask >> i) & 1)
                    star = family.stars(candidate)[idx]
                    el, z, img = next(
                        (el, z, row[z])
                        for el in F.level_samples[F.depth]
                        for row in (action.image_indices(el),)
                        for z in iter_bits(zmask)
                        if not (star >> row[z]) & 1
                    )
                    pts = action.space.points
                    yield (
                        f"{name}: covering {idx} never absorbed; witness element "
                        f"{el!r} sends {pts[z].pid} to {pts[img].pid}"
                    )

    checks.append(first_failure("attracts", unattracted()))
    return AttractorVerdict(
        candidate=tuple(action.space.pids(candidate)), checks=tuple(checks)
    )


def verify_uniform(
    candidate: int,
    points_sample: int,
    F: FilterBasis,
    action: Action,
    family: AdmissibleFamily,
    cap: int,
) -> AttractorVerdict:
    """Compact invariant set containing the prolongational limit set of every
    point of the mask `points_sample` (in index order). J(x) is never empty:
    its seed holds x and every level sample is certified nonempty, so its
    orbit, and the closure of that orbit, hold a point."""
    checks = _core_checks(candidate, action, family, cap, F.probes())

    def limits_outside():
        if not candidate:
            yield "empty candidate"
        else:
            for x in iter_bits(points_sample):
                lim = prolongational_limit(x, F, action, family)
                if not subset_at_resolution(lim, candidate, family):
                    pid = action.space.points[x].pid
                    yield f"limit of {pid} leaves the candidate: {action.space.pids(lim)[:4]}"

    checks.append(first_failure("prolongational_limits_inside", limits_outside()))
    return AttractorVerdict(
        candidate=tuple(action.space.pids(candidate)), checks=tuple(checks)
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


def check_uniqueness(
    A1: int,
    A2: int,
    invariant_sets: dict[str, int],
    family: AdmissibleFamily,
) -> CheckList:
    """Two verified attractors coincide at resolution, and every supplied
    bounded invariant set is contained in the first: one row per invariant
    set, in sorted-name order, then one for the equality."""
    rows = []
    for name in sorted(invariant_sets):
        inside = subset_at_resolution(invariant_sets[name], A1, family)
        witness = None if inside else f"bounded invariant set {name!r} escapes the attractor"
        rows.append(CheckResult(f"contains:{name}", inside, witness))
    equal = sets_equal_at_resolution(A1, A2, family)
    witness = None if equal else "the two candidates differ at resolution"
    rows.append(CheckResult("equal_at_resolution", equal, witness))
    return CheckList(checks=tuple(rows))


@dataclass(frozen=True)
class EquivalenceReport:
    """Both verdicts, the taxonomy and hypothesis rows, and the two links
    between the notions: `forward` (a global attractor verifies uniformly)
    and the hypothesis-gated `converse`."""

    global_verdict: AttractorVerdict
    uniform_verdict: AttractorVerdict
    taxonomy: CheckList
    hypotheses: CheckList
    eventually_compact: CheckResult
    links: CheckList

    @property
    def kind(self) -> str:
        return combine_kinds(self.global_verdict, self.uniform_verdict)

    def to_dict(self) -> dict:
        return {
            "global": self.global_verdict.to_dict(),
            "uniform": self.uniform_verdict.to_dict(),
            "taxonomy": self.taxonomy.to_dict(),
            "hypotheses": self.hypotheses.to_dict(),
            "eventually_compact": self.eventually_compact.to_dict(),
            "links": self.links.to_dict(),
            "kind": self.kind,
        }


def check_equivalence(scenario) -> EquivalenceReport:
    """Run both verifications of the scenario's expected attractor plus the
    taxonomy and hypothesis checks, and relate them: a global attractor must
    verify uniformly; the converse is asserted only when its hypotheses all
    tested true, and when it cannot apply it passes with the first failing
    hypothesis (sorted) named."""
    candidate = scenario.attractor_points()
    F, action, family = scenario.filter_basis, scenario.action, scenario.family
    cap = scenario.cap
    glob = verify_global(candidate, scenario.testsets, F, action, family, cap)
    unif = verify_uniform(candidate, scenario.points_sample, F, action, family, cap)
    taxonomy = check_dissipativity(
        action,
        F,
        family,
        scenario.testsets,
        cap=cap,
        points_sample=scenario.points_sample,
        absorb_candidate=scenario.testsets.get(scenario.absorbing_name),
    )
    hyp = check_hypotheses(F, max_level=max(0, F.depth - 6))
    if scenario.compact_witness is not None:
        evc = verify_eventual_compactness(
            action, scenario.compact_witness, scenario.testsets, family, cap
        )
    else:
        evc = CheckResult("eventually_compact", False, "not declared")

    forward_ok = unif.all_passed or not glob.all_passed
    forward = CheckResult(
        "forward",
        forward_ok,
        None if forward_ok else "the global attractor does not verify uniformly",
    )
    converse_hyps = (
        hyp.check("within_right_translate"),
        evc,
        taxonomy.check("asymptotically_compact"),
    )
    blocking = sorted(c.name for c in converse_hyps if not c.passed)
    if blocking:
        converse = CheckResult("converse", True, f"not applicable: {blocking[0]} fails")
    else:
        converse_ok = glob.all_passed or not unif.all_passed
        converse = CheckResult(
            "converse",
            converse_ok,
            None if converse_ok else "the global uniform attractor does not verify globally",
        )
    return EquivalenceReport(
        global_verdict=glob,
        uniform_verdict=unif,
        taxonomy=taxonomy,
        hypotheses=hyp,
        eventually_compact=evc,
        links=CheckList(checks=(forward, converse)),
    )
