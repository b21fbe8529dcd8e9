import functools
import itertools
import operator
import random

import pytest
from reference import reference_proximity_suite, stars_of, walk_product, walk_transpose
from test_proximity import ALL_FAMILIES, GRID101_CHAIN, TOPOLOGY_FAMILIES, family_id

from coverdyn import checks
from coverdyn.checks import (
    battery_family,
    boundedness_suite,
    closure_criteria_suite,
    measure_suite,
    nested_chain_suite,
    proximity_suite,
    tiny_topology_battery,
)
from coverdyn.cli import _asymmetric_stars
from coverdyn.covering import CheckResult, metric_chain_family, verify_admissible
from coverdyn.proximity import CoverCollection, coarsen, precedes, prox
from coverdyn.scenarios import BUILTIN_SCENARIOS, get_scenario
from coverdyn.space import line_grid


@pytest.fixture(scope="module")
def fam():
    return metric_chain_family(line_grid(0.0, 1.0, 31), 2.0, 4)


def test_proximity_suite_green(fam):
    results = proximity_suite(fam)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


@pytest.mark.parametrize(
    "make",
    [battery_family]
    + [lambda name=name: get_scenario(name).family for name in sorted(BUILTIN_SCENARIOS)]
    + [lambda f=f: f for f in TOPOLOGY_FAMILIES],
    ids=["battery", *sorted(BUILTIN_SCENARIOS), *(f"topology{i}" for i in range(len(TOPOLOGY_FAMILIES)))],
)
def test_suites_derive_their_preconditions_from_the_family(make):
    # separation needs the star-basis axiom and a Hausdorff space (every
    # singleton open; a metric space resolves to the discrete topology), the
    # closure-invariance laws the star-basis axiom alone
    fam = make()
    space = fam.space
    star_basis = verify_admissible(fam).passed("star_basis")
    discrete = space.opens is None or all(1 << i in space.opens for i in range(space.n))
    prox_rows = {r.name for r in proximity_suite(fam)}
    assert ("prox_separates_points" in prox_rows) == (star_basis and discrete)
    closure_rows = {r.name for r in closure_criteria_suite(fam, rng=random.Random(0))}
    for name in ("prox_to_closure_invariant", "semi_prox_closure_invariant"):
        assert (name in closure_rows) == star_basis


@pytest.mark.parametrize("call, law", [(0, "one-intermediate"), (1, "two-intermediate")], ids=["R2", "R3"])
def test_triangle_laws_fail_loudly_when_the_tables_and_the_scan_disagree(monkeypatch, call, law):
    # one stray bit in R2 or R3 of the finest covering's table flags the pair
    # of the grid ends, where no path of the correct prox fails either law,
    # so the witness scan finds nothing. Levels 2-4 of this chain have equal
    # tables, composed once, so the hop rows are found by their table: its
    # first n rows are R2, the next n R3. That table is the identity, so
    # R2[0] and R3[0] are both the point 0
    family = metric_chain_family(line_grid(0.0, 1.0, 9), 2.0, 4)
    n = family.space.n
    fine = family.coverings[-1].point_star
    assert fine == tuple(1 << x for x in range(n))
    assert len({cov.point_star for cov in family.coverings[2:]}) == 1
    assert all(r.passed for r in proximity_suite(family))
    real, seen = checks.union_rows, []

    def stray(table, mask):
        out = real(table, mask)
        if tuple(table) == fine:
            if len(seen) == call * n:
                out |= 1 << (n - 1)
            seen.append(mask)
        return out

    monkeypatch.setattr(checks, "union_rows", stray)
    with pytest.raises(RuntimeError, match=rf"the {law} law at \(\(0\),\(1\)\)"):
        proximity_suite(family)
    assert len(seen) == 2 * n


def _random_tables(n):
    # asymmetric tables over n points: dense, sparse, and one empty row
    rng = random.Random(n)
    for density in (1, 2, 3):
        rows = [functools.reduce(operator.and_, (rng.getrandbits(n) for _ in range(density))) for _ in range(n)]
        yield [0, *rows[1:]]


@pytest.mark.parametrize("family", [*ALL_FAMILIES, GRID101_CHAIN], ids=family_id)
def test_triangle_hops_match_the_bit_walk(family):
    # R2 and R3 compose a table with itself through its transpose: on the
    # point stars, which are symmetric, and on the asymmetric control's
    # tables and random tables, which are not
    n = family.space.n
    tables = [cov.point_star for cov in family.coverings] + _asymmetric_stars(family)
    for table in tables + list(_random_tables(n)):
        cols = walk_transpose(table, n)
        r2 = walk_product(table, cols)
        assert checks._hops(tuple(table)) == (r2, walk_product(r2, cols)), table


def broken(x, y, family):
    v = prox(x, y, family)
    if x < y:
        return CoverCollection(family, v.mask >> 1)
    return v


def test_proximity_suite_catches_broken_symmetry(fam):
    results = proximity_suite(fam, stars_of(broken, fam))
    by_name = {r.name: r for r in results}
    assert not by_name["prox_symmetry"].passed
    assert by_name["prox_symmetry"].witness


def test_exhaustive_triangle_check_reads_the_injected_prox():
    grid_fam = metric_chain_family(line_grid(0.0, 1.0, 101), 2.0, 6)
    results = proximity_suite(grid_fam, stars_of(broken, grid_fam))
    by_name = {r.name: r for r in results}
    triangle = by_name["prox_triangle_1_intermediate"]
    assert not triangle.passed
    assert triangle.witness == "(0),(0.99) via (0.01)"
    triangle = by_name["prox_triangle_2_intermediate"]
    assert not triangle.passed
    assert triangle.witness == "(0),(0.99),(0),(0.01)"


def reference_triangle_1(family, p):
    """The one-intermediate triangle law as a plain triple loop in (z, x, y)
    order: prox(x, y) precedes the coarsening of prox(x, z) & prox(z, y)."""
    pts = family.space.points
    ix = range(family.space.n)
    val = {(x, y): p(x, y, family) for x in ix for y in ix}
    coarsened = {}
    for z, x, y in itertools.product(ix, repeat=3):
        acc = val[x, z] & val[z, y]
        if acc.mask not in coarsened:
            coarsened[acc.mask] = coarsen(acc, 1)
        if not precedes(val[x, y], coarsened[acc.mask]):
            return CheckResult(
                "prox_triangle_1_intermediate", False, f"{pts[x].pid},{pts[y].pid} via {pts[z].pid}"
            )
    return CheckResult("prox_triangle_1_intermediate", True)


def reference_triangle_2(family, p):
    """The two-intermediate triangle law as a plain quadruple loop in
    (x, y, a, b) order: prox(x, y) precedes the 2-step coarsening of
    prox(x, a) & prox(a, b) & prox(b, y)."""
    pts = family.space.points
    ix = range(family.space.n)
    val = {(x, y): p(x, y, family) for x in ix for y in ix}
    coarsened = {}
    for x, y, a, b in itertools.product(ix, repeat=4):
        acc = val[x, a] & val[a, b] & val[b, y]
        if acc.mask not in coarsened:
            coarsened[acc.mask] = coarsen(acc, 2)
        if not precedes(val[x, y], coarsened[acc.mask]):
            return CheckResult(
                "prox_triangle_2_intermediate",
                False,
                ",".join(pts[q].pid for q in (x, y, a, b)),
            )
    return CheckResult("prox_triangle_2_intermediate", True)


def clear_one_bit(x, y, family):
    # drops covering 0 (the coarsest: the trivial covering of a finite
    # family, the first level of a chain) from one ordered pair
    v = prox(x, y, family)
    if (x, y) == (0, family.space.n - 1):
        return CoverCollection(family, v.mask & ~1)
    return v


@pytest.mark.parametrize("p", [prox, broken, clear_one_bit], ids=lambda p: p.__name__)
@pytest.mark.parametrize(
    "family", ALL_FAMILIES + [GRID101_CHAIN], ids=family_id
)
def test_triangle_1_matches_the_triple_loop(family, p):
    results = proximity_suite(family, stars_of(p, family))
    got = {r.name: r for r in results}["prox_triangle_1_intermediate"]
    assert got == reference_triangle_1(family, p)


@pytest.mark.parametrize("p", [broken, clear_one_bit], ids=lambda p: p.__name__)
def test_triangle_1_mutants_fail_somewhere(p):
    assert any(not reference_triangle_1(f, p).passed for f in ALL_FAMILIES)


@pytest.mark.parametrize("p", [prox, broken, clear_one_bit], ids=lambda p: p.__name__)
@pytest.mark.parametrize("family", ALL_FAMILIES, ids=family_id)
def test_triangle_2_matches_the_quadruple_loop(family, p):
    results = proximity_suite(family, stars_of(p, family))
    got = {r.name: r for r in results}["prox_triangle_2_intermediate"]
    assert got == reference_triangle_2(family, p)


@pytest.mark.parametrize("p", [broken, clear_one_bit], ids=lambda p: p.__name__)
def test_triangle_2_mutants_fail_somewhere(p):
    assert any(not reference_triangle_2(f, p).passed for f in ALL_FAMILIES)


def next_only(x, y, family):
    # the prox from each index to the next and the empty collection
    # elsewhere, the diagonal too: not symmetric, and k hops lead exactly k
    # steps on, so three hops find failures that two hops do not
    return prox(x, y, family) if y == x + 1 else CoverCollection(family, 0)


def drop_one_without_two(x, y, family):
    # covering 1 only where covering 2 is. On chain17-5 the one-step
    # coarsening of covering 2 holds covering 1 and the two-step one does
    # not, so this breaks the one-intermediate law and keeps the other.
    v = prox(x, y, family).mask
    return CoverCollection(family, v if v >> 2 & 1 else v & ~2)


@pytest.mark.parametrize(
    "p, family, passed",
    [
        (next_only, metric_chain_family(line_grid(0.0, 1.0, 9), 2.0, 4), False),
        (drop_one_without_two, metric_chain_family(line_grid(0.0, 1.0, 17), 2.0, 4), True),
    ],
    ids=["three-hops", "two-step-coarsening"],
)
def test_triangle_2_reads_three_hops_and_two_step_coarsening(p, family, passed):
    by_name = {r.name: r for r in proximity_suite(family, stars_of(p, family))}
    assert not by_name["prox_triangle_1_intermediate"].passed
    got = by_name["prox_triangle_2_intermediate"]
    assert got == reference_triangle_2(family, p)
    assert got.passed == passed


def test_closure_and_boundedness_suites_green(fam):
    rng = random.Random(0)
    for r in closure_criteria_suite(fam, rng=rng, trials=40):
        assert r.passed, r
    for r in boundedness_suite(fam, rng=rng, trials=40):
        assert r.passed, r


def test_measure_suite_green(fam):
    for r in measure_suite(fam, cap=6, rng=random.Random(1), trials=60):
        assert r.passed, r


def test_nested_chain_suite_counts(fam, monkeypatch):
    monkeypatch.setattr(checks, "NESTED_CHAIN_TRIALS", 20)
    results = nested_chain_suite(fam, cap=8, rng=random.Random(2))
    assert all(r.passed for r in results), results


def test_tiny_topology_battery_green():
    results = tiny_topology_battery(random.Random(3))
    assert results
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def table_prox(table):
    """A prox that reads a fixed table of collection masks."""

    def p(x, y, family):
        return CoverCollection(family, table[x][y])

    return p


# The two-intermediate law reads the 2-step coarsening. chain17-5 has the
# 1-step coarsening rows (1, 1, 3, 63, 63, 63) and the 2-step ones
# (1, 1, 1, 63, 63, 63), so a value {0} holds the 2-step coarsening of
# covering 2 and not its 1-step one. The tables below place paths of three
# hops in an otherwise empty prox table.
CHAIN17_5 = metric_chain_family(line_grid(0.0, 1.0, 17), 2.0, 5)


def path_table(n, entries):
    table = [[0] * n for _ in range(n)]
    for (x, y), v in entries.items():
        table[x][y] = v
    return table


# 0 -> 1 -> 2 -> 3 through values that hold covering 2, and prox(0, 3) = {0}:
# the law holds, read with 1-step coarsening it would fail
SHORT = {(0, 1): 7, (1, 2): 7, (2, 3): 7, (0, 3): 1}
# and 0 -> 4 -> 5 -> 3 through the whole family: the law fails at (0, 3) via
# (4, 5); the earlier (1, 2) fails only with 1-step coarsening
FALSE_FIRST_WITNESS = {**SHORT, (0, 4): 63, (4, 5): 63, (5, 3): 63}
# and 0 -> 4 -> 5 -> 6 through the whole family: the law fails at (0, 6); the
# lesser y = 3 fails only with 1-step coarsening
FALSE_FIRST_Y = {**SHORT, (0, 4): 63, (4, 5): 63, (5, 6): 63}


def random_tables(family, count):
    """`count` seeded tables whose entries are empty or, with even odds, the
    upward closure of one or two random covering indices."""
    rng = random.Random(0)
    n = family.space.n
    for _ in range(count):
        yield [
            [
                0 if rng.random() < 0.5
                else CoverCollection.finite(family, rng.sample(range(family.size), rng.randint(1, 2))).mask
                for _ in range(n)
            ]
            for _ in range(n)
        ]


# on ten points the 1- and 2-step coarsenings differ too
TEN_POINT_CHAINS = [
    metric_chain_family(line_grid(0.0, 1.0, 10), eps0, depth)
    for eps0, depth in [(2.0, 2), (2.0, 4), (0.5, 3)]
]


@pytest.mark.parametrize(
    "family, tables",
    [
        (CHAIN17_5, [path_table(17, t) for t in (SHORT, FALSE_FIRST_WITNESS, FALSE_FIRST_Y)]),
        *[(f, list(random_tables(f, 40))) for f in TEN_POINT_CHAINS],
    ],
    ids=["chain17-5-paths", *map(family_id, TEN_POINT_CHAINS)],
)
def test_triangle_2_on_injected_tables_matches_the_quadruple_loop(family, tables):
    for table in tables:
        p = table_prox(table)
        got = {r.name: r for r in proximity_suite(family, stars_of(p, family))}
        assert got["prox_triangle_2_intermediate"] == reference_triangle_2(family, p), table


PROX_MUTANTS = [prox, broken, clear_one_bit, next_only, drop_one_without_two]


@pytest.mark.parametrize("p", PROX_MUTANTS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("family", ALL_FAMILIES + [GRID101_CHAIN], ids=family_id)
def test_proximity_suite_matches_the_per_pair_reference(family, p):
    # every row, in order, with its name, verdict and witness
    assert proximity_suite(family, stars_of(p, family)) == reference_proximity_suite(family, p)


@pytest.mark.parametrize("family", [CHAIN17_5, *TEN_POINT_CHAINS], ids=family_id)
def test_proximity_suite_matches_the_per_pair_reference_on_random_tables(family):
    for table in random_tables(family, 40):
        p = table_prox(table)
        assert proximity_suite(family, stars_of(p, family)) == reference_proximity_suite(family, p), table


def test_the_asymmetric_control_is_the_table_form_of_broken():
    for family in [*ALL_FAMILIES, GRID101_CHAIN]:
        assert list(map(tuple, _asymmetric_stars(family))) == stars_of(broken, family), family_id(family)
