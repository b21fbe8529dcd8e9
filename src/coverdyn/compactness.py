"""Boundedness, total boundedness, Cauchy sequences, and star measures of noncompactness.

The star measure of a set is the collection of coverings at which the set
admits a cover by at most `cap` point stars; the cap is the desk-scale stand-in
for "finitely many" against the ambient space. A member-cover variant (covers
by at most `cap` covering members) backs the limit-compactness checks.

Each measure is an exact `coverable_within` search. Candidates are first cut
to their distinct traces on the target. When the cap is at least the number
of traces, all of them together are a cover within the cap if any cover is,
so the query is answered by their union alone, with no sort and no search.
Otherwise a counting bound rules out impossible covers: no k candidates hold more target
points than the k largest do, so a target that outnumbers them needs more
than k of them. The bound is tested once before the search, and at every
search node against the points still uncovered. Dominance pruning compares a
trace only with the kept traces of a strictly larger size: two distinct sets
of one size never contain one another.

A measure is one scan over the coverings, finest index first. A covering
already implied by one that fits is not searched: a cover by members or
stars of V gives one of every U that V refines, so the coverings that fit
are upward closed and each fit adds its whole refinement row. On a chain the
scan stops searching at the finest level that fits.

Each family memoizes its measures per (set mask, cap, candidate name), so a
repeated query runs no second cover search. The memo holds int collection
masks: a stored CoverCollection points back at its family, and that cycle
would keep every measured family alive until the cyclic collector ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .covering import AdmissibleFamily
from .proximity import CoverCollection, converges_to_zero
from .space import CoverdynError, EmptyInput, iter_bits


class NotDecreasing(CoverdynError):
    """A chain of sets fails F_{k+1} contained in F_k."""


class NotClosed(CoverdynError):
    """A set in a chain is not closed under the family closure."""


class CoverSearchBudgetExceeded(CoverdynError):
    """The exact minimum-cover search exceeded its node budget."""


DEFAULT_COVER_NODE_BUDGET = 400_000


def default_cap(space_size: int) -> int:
    return max(1, -(-space_size // 4))


def is_bounded(ymask: int, family: AdmissibleFamily) -> bool:
    """True iff some covering of the family relates every pair of Y."""
    if ymask == 0:
        raise EmptyInput("boundedness of the empty set is undefined")
    return any(
        all(ymask & ~cov.point_star[y] == 0 for y in iter_bits(ymask))
        for cov in family.coverings
    )


def is_totally_bounded(ymask: int, family: AdmissibleFamily) -> bool:
    """True iff every covering admits a finite star cover of Y (always, on finite samples)."""
    if not ymask:
        raise EmptyInput("total boundedness of the empty set is undefined")
    return all(ymask & ~star == 0 for star in family.stars(ymask))


def _greedy_cover(target: int, candidates: Sequence[int], cap: int) -> Optional[int]:
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


def _undominated(cands: Sequence[int]) -> list[int]:
    """The sets of `cands` (distinct, sorted by size, largest first) that no
    earlier kept set contains, in order. A set can only lie inside a strictly
    larger one, so each set is tested against the kept sets of the size
    classes before its own."""
    kept: list[int] = []
    larger: list[int] = []
    size = 0
    for c in cands:
        if c.bit_count() != size:
            size, larger = c.bit_count(), kept[:]
        if not any(c & ~k == 0 for k in larger):
            kept.append(c)
    return kept


def coverable_within(
    target: int,
    candidates: Sequence[int],
    cap: int,
    node_budget: int = DEFAULT_COVER_NODE_BUDGET,
) -> bool:
    """Exact decision: can `target` be covered by at most `cap` candidate sets?

    Only the distinct traces `c & target` matter. When their union misses a
    target point the answer is no; otherwise, when `cap` is at least their
    number, it is yes, as all of them are a cover within the cap. Both are
    decided with no sort and no search node. Then counting rules out a cover:
    when the `cap` largest traces hold fewer target points than the target
    has, no `cap` of them cover it. Dominated traces are dropped (each is
    tested only against the kept traces of a strictly larger size, which
    keeps the same list in the same order as testing every kept trace).
    Greedy success certifies yes; otherwise an exhaustive branch-and-bound on
    the least-covered point decides exactly (desk-scale sets only). A search
    node at depth d stops when its uncovered points outnumber what cap - d
    candidates of the widest kept size can hold. The bound drops only
    branches that cannot reach a cover and keeps the node order, so the
    search visits a subset of the unbounded tree.
    """
    if target == 0:
        return True
    distinct = {c & target for c in candidates if c & target}
    union_all = 0
    for c in distinct:
        union_all |= c
    if target & ~union_all:
        return False
    if cap >= len(distinct):
        return True
    cands = sorted(distinct, key=int.bit_count, reverse=True)
    if sum(c.bit_count() for c in cands[:max(cap, 0)]) < target.bit_count():
        return False
    kept = _undominated(cands)
    if cap >= len(kept):
        return True
    if _greedy_cover(target, kept, cap) is not None:
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


def _measure(ymask: int, family: AdmissibleFamily, cap: int, candidates: str) -> CoverCollection:
    # candidates names the Covering attribute that may cover ymask: "point_star" or "members"
    if ymask == 0:
        raise EmptyInput("measure of the empty set is undefined")
    cache = family.__dict__.setdefault("_measure_cache", {})
    key = (ymask, cap, candidates)
    if key not in cache:
        # a covering that fits decides every covering it refines (module docstring)
        rows = family.refine_rows
        mask = 0
        for i in range(family.size - 1, -1, -1):
            if not (mask >> i) & 1 and coverable_within(
                ymask, getattr(family.coverings[i], candidates), cap
            ):
                mask |= rows[i]
        cache[key] = mask
    return CoverCollection(family, cache[key])


def star_measure(ymask: int, family: AdmissibleFamily, cap: int) -> CoverCollection:
    """Coverings at which Y admits a cover by at most `cap` point stars."""
    return _measure(ymask, family, cap, "point_star")


def member_measure(ymask: int, family: AdmissibleFamily, cap: int) -> CoverCollection:
    """Coverings at which Y admits a cover by at most `cap` covering members."""
    return _measure(ymask, family, cap, "members")


def is_cauchy(seq: Sequence[int], family: AdmissibleFamily, min_tail: int = 2) -> bool:
    """For every covering there is a tail whose pairs all share a member.

    Only tails with at least `min_tail` elements count: a one-element tail is
    vacuously related, which would make every truncated sequence Cauchy.
    Later tails are subsets of earlier ones, so the shortest counted tail
    decides.
    """
    if not seq:
        raise EmptyInput("a Cauchy check needs a nonempty sequence")
    tail = seq[max(len(seq) - max(min_tail, 1), 0):]
    tmask = family.space.mask_of(tail)
    return all(
        all(tmask & ~cov.point_star[p] == 0 for p in tail)
        for cov in family.coverings
    )


@dataclass(frozen=True)
class NestedChainReport:
    """Outcome of the nested-closed-chain (Cantor-style) harness."""

    hypothesis_met: bool
    intersection_mask: int
    measure_trace: tuple[CoverCollection, ...]
    claim: str


def cantor_kuratowski_check(
    masks: Sequence[int], family: AdmissibleFamily, cap: int
) -> NestedChainReport:
    """Check a decreasing chain of nonempty closed sets: when the star measures
    converge to zero, assert and report the nonempty intersection; otherwise
    report that the hypothesis is not met (no claim)."""
    if not masks:
        raise EmptyInput("the chain must be nonempty")
    for k, m in enumerate(masks):
        if m == 0:
            raise EmptyInput(f"chain element {k} is empty")
        if family.closure_mask(m) != m:
            raise NotClosed(f"chain element {k} is not closed under the family closure")
    for k in range(1, len(masks)):
        if masks[k] & ~masks[k - 1]:
            raise NotDecreasing(f"element {k} is not contained in element {k - 1}")
    trace = tuple(star_measure(m, family, cap) for m in masks)
    met = converges_to_zero(trace)
    return NestedChainReport(
        hypothesis_met=met,
        # the chain is decreasing, so its intersection is its last element
        intersection_mask=masks[-1],
        measure_trace=trace,
        claim="nonempty compact intersection" if met else "hypothesis not met",
    )
