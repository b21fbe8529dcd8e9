"""Reference row forms of the covering kernel, kept as test oracles.

The kernel takes point rows and stars from packed bit matrices, and relation
rows from container lookups in each target's point rows. The forms here walk
one bit per Python step instead: point rows and stars member by member,
refinement and double refinement from per-member row loops or from every
intersecting member pair, and relation rows and chain certification one
covering pair at a time. The topological closure from the opens alone is
here too: it is the oracle for the family closure.
"""

import functools
import itertools

from coverdyn.covering import DegenerateChain
from coverdyn.space import iter_bits


def point_members(cov):
    """For each point index, the indices of the members containing it."""
    per = [[] for _ in range(cov.space.n)]
    for mi, m in enumerate(cov.members):
        for b in iter_bits(m):
            per[b].append(mi)
    return tuple(tuple(v) for v in per)


def point_rows(cov):
    return tuple(sum(1 << mi for mi in mis) for mis in point_members(cov))


def point_star(cov):
    out = []
    for mis in point_members(cov):
        s = 0
        for mi in mis:
            s |= cov.members[mi]
        out.append(s)
    return tuple(out)


def refines(V, U):
    """Every member of V lies in a U-member containing its lowest point."""
    per = point_members(U)
    for v in V.members:
        anchor = (v & -v).bit_length() - 1
        if not any(v & ~U.members[mi] == 0 for mi in per[anchor]):
            return False
    return True


def double_refines(V, U):
    """Row form: `meets` is the mask of the V-members that meet member a (a's
    own bit included), and `inside[k]` the mask of the V-members contained in
    U-member k; a passes when `meets` lies inside the union of `inside[k]`
    over the U-members k that contain a."""
    rows = point_rows(V)
    stars = point_star(V)
    per = point_members(U)
    inside = {}
    for va in V.members:
        meets = 0
        for p in iter_bits(va):
            meets |= rows[p]
        anchor = (va & -va).bit_length() - 1
        fits = 0
        for k in per[anchor]:
            uk = U.members[k]
            if va & ~uk:
                continue
            if k not in inside:
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


@functools.cache
def intersecting_pairs(V):
    """Every intersecting member pair of V, each once, with every (a, a)."""
    pairs = set()
    for row in V.point_rows:
        for a, b in itertools.combinations(iter_bits(row), 2):
            pairs.add((a, b))
    pairs.update((i, i) for i in range(len(V.members)))
    return frozenset(pairs)


def pair_set_double_refines(V, U):
    """Collect every intersecting member pair of V once, then test each."""
    for a, b in intersecting_pairs(V):
        union = V.members[a] | V.members[b]
        anchor = next(iter_bits(union))
        if not any(union & ~U.members[mi] == 0 for mi in iter_bits(U.point_rows[anchor])):
            return False
    return True


def relation_rows(coverings, relation):
    """Relation rows built entry by entry: bit j of row i iff relation(i, j)."""
    return tuple(
        sum(1 << j for j, U in enumerate(coverings) if relation(V, U)) for V in coverings
    )


def certify_chain(coverings):
    """Raise the DegenerateChain of the first level that fails to
    double-refine its predecessor, one pair at a time."""
    for i in range(1, len(coverings)):
        if not double_refines(coverings[i], coverings[i - 1]):
            raise DegenerateChain(
                f"level {i} ({coverings[i].label}) does not double-refine "
                f"level {i - 1} ({coverings[i - 1].label})"
            )


def topology_closure(space, mask):
    """Topological closure from the opens alone (independent of any covering family)."""
    full = space.full_mask
    out = full
    for o in space.opens:
        closed = full & ~o
        if mask & ~closed == 0:
            out &= closed
    return out
