"""Covering-valued proximity: the ordered power set of a family and the prox functions.

Distances between points are measured by which coverings place them in a
common star. Values are upward-hereditary collections of covering indices,
ordered by reverse inclusion: the full family plays the role of distance
zero, the empty collection the role of infinity. Every collection is an
upward-closed bitmask over covering indices, whatever the family; on a chain
that is a prefix of its levels. A point is its index in the family's space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .covering import AdmissibleFamily
from .space import CoverdynError, EmptyInput, iter_bits, union_rows


class FamilyMismatch(CoverdynError):
    """Two collection values refer to different covering families."""


@dataclass(frozen=True, eq=False)
class CoverCollection:
    """An upward-hereditary set of covering indices of one family, as a bitmask.

    Bit i is set when covering i belongs to the collection.
    """

    family: AdmissibleFamily
    mask: int

    @staticmethod
    def finite(family: AdmissibleFamily, indices: Iterable[int]) -> "CoverCollection":
        """The upward closure of `indices` along the refinement order."""
        rows = family.refine_rows
        mask = 0
        for i in indices:
            mask |= rows[i]
        return CoverCollection(family, mask)

    @property
    def is_zero(self) -> bool:
        """The whole family: the least element, playing the role of distance zero."""
        return self.mask == (1 << self.family.size) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoverCollection):
            return NotImplemented
        _check_family(self, other)
        return self.mask == other.mask

    def __hash__(self) -> int:
        return hash((id(self.family), self.mask))

    def __and__(self, other: "CoverCollection") -> "CoverCollection":
        _check_family(self, other)
        return CoverCollection(self.family, self.mask & other.mask)

    def __or__(self, other: "CoverCollection") -> "CoverCollection":
        _check_family(self, other)
        return CoverCollection(self.family, self.mask | other.mask)

    def __repr__(self) -> str:
        return f"CoverCollection({list(iter_bits(self.mask))})"


def _check_family(a: CoverCollection, b: CoverCollection) -> None:
    if a.family is not b.family:
        raise FamilyMismatch("values belong to different families")


def precedes(E1: CoverCollection, E2: CoverCollection) -> bool:
    """Order by reverse inclusion: E1 precedes E2 iff E1 contains E2."""
    _check_family(E1, E2)
    return E2.mask & ~E1.mask == 0


def coarsen(E: CoverCollection, n: int) -> CoverCollection:
    """The collection of coverings n-step double-refined by some member of E.

    Order preserving, and fixes the zero element whenever the family's levels
    supply the required refinement witnesses.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return CoverCollection(E.family, union_rows(E.family.reach_rows(n), E.mask))


def converges_to_zero(seq: Sequence[CoverCollection]) -> bool:
    """Truncated-net convergence: every covering index is present from some
    position on (equivalently: present in every sufficiently late element).

    On a finite sequence "from some position on" includes the last element,
    and the last element alone suffices, so this is `seq[-1].is_zero`.
    """
    if not seq:
        raise EmptyInput("convergence needs at least one element")
    for e in seq:
        _check_family(seq[0], e)
    return seq[-1].is_zero


def prox(x: int, y: int, family: AdmissibleFamily) -> CoverCollection:
    """The collection of coverings whose star at x captures y."""
    mask = 0
    for i, cov in enumerate(family.coverings):
        if (cov.point_star[x] >> y) & 1:
            mask |= 1 << i
    return CoverCollection(family, mask)


def prox_to_set(x: int, amask: int, family: AdmissibleFamily) -> CoverCollection:
    """Union of prox(x, a) over a in A: coverings whose star at x meets A."""
    if not amask:
        raise EmptyInput("prox to the empty set is undefined")
    mask = 0
    for i, cov in enumerate(family.coverings):
        if cov.point_star[x] & amask:
            mask |= 1 << i
    return CoverCollection(family, mask)


def semi_prox(amask: int, bmask: int, family: AdmissibleFamily) -> CoverCollection:
    """One-sided set proximity: coverings at which every point of B is star-close to A."""
    if not amask or not bmask:
        raise EmptyInput("semi_prox needs nonempty sets")
    return CoverCollection(family, stars_containing(bmask, family.stars(amask)))


def stars_containing(bmask: int, stars: Sequence[int]) -> int:
    """Bitmask of the indices i with `bmask` inside stars[i].

    With stars[i] the star of A at covering i this is semi_prox(A, B) for
    callers that already hold the stars of A.
    """
    mask = 0
    for i, star in enumerate(stars):
        if bmask & ~star == 0:
            mask |= 1 << i
    return mask


def point_sequence_converges(seq: Sequence[int], x: int, family: AdmissibleFamily) -> bool:
    """Truncated convergence of a point sequence: eventually inside every star of x.

    As in `converges_to_zero`, the last term alone decides: it must lie in
    the star of x at every covering, i.e. in the closure of {x}.
    """
    if not seq:
        raise EmptyInput("convergence needs at least one point")
    return bool((family.closure_mask(1 << x) >> seq[-1]) & 1)


def sets_equal_at_resolution(amask: int, bmask: int, family: AdmissibleFamily) -> bool:
    """Set equality up to the family's resolution: each set lies in the other's closure."""
    return subset_at_resolution(amask, bmask, family) and subset_at_resolution(bmask, amask, family)


def subset_at_resolution(amask: int, bmask: int, family: AdmissibleFamily) -> bool:
    """A is contained in B up to resolution: A lies inside the family closure of B.

    Equivalently, every point of A is star-close to B at every covering.
    """
    if not amask:
        return True
    if not bmask:
        return False
    return amask & ~family.closure_mask(bmask) == 0
