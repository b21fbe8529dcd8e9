"""Acceptance gate: every criterion runs at its stated tolerance and prints a
pass/fail line (visible with `pytest -s`)."""

import dataclasses
import math
import random
import time

import pytest

from coverdyn.attractor import (
    check_equivalence,
    check_uniqueness,
    construct_candidate,
    verify_global,
    verify_uniform,
)
from coverdyn.checks import grid_battery, nested_chain_suite
from coverdyn.cli import main as cli_main
from coverdyn.covering import CheckResult, metric_chain_family
from coverdyn.dynamics import (
    attracts,
    check_hypotheses,
    integer_tails,
    nat_add,
    nat_mul,
    omega_limit,
)
from coverdyn.proximity import sets_equal_at_resolution
from coverdyn.scenarios import get_scenario
from coverdyn.space import iter_bits, line_grid
from reference import prox_form_attracts

SCENARIO_NAMES = ("decay_grid", "iterated_contractions", "composition", "exp_decay")


def report(criterion: str, passed: bool):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed, criterion


def test_criterion_1_axiom_suite():
    t0 = time.monotonic()
    results = grid_battery(seed=0)
    elapsed = time.monotonic() - t0
    failures = [r for r in results if not r.passed]
    expected_names = {
        "prox_symmetry",
        "prox_zero_at_diagonal",
        "prox_separates_points",
        "prox_triangle_1_intermediate",
        "prox_triangle_2_intermediate",
        "sequence_convergence_matches_prox",
        "prox_zero_iff_in_closure",
        "prox_to_closure_invariant",
        "semi_prox_closure_invariant",
        "semi_prox_zero_iff_subset_closure",
        "convergent_sequence_closure_criterion",
        "totally_bounded_implies_bounded",
        "star_of_bounded_is_bounded",
        "measure_monotone",
        "measure_union_bracket",
        "measure_closure_bracket",
        "measure_member_cover_bracket",
        "nested_chain_positive_runs",
        "nested_chain_negative_controls",
    }
    have = {r.name for r in results}
    tiny_expected = {
        f"topologies<=3:{n}"
        for n in expected_names
        if n != "prox_separates_points" and not n.startswith("nested_chain")
    }
    ok = (
        not failures
        and expected_names <= have
        and tiny_expected <= have
        and elapsed < 60.0
    )
    report(
        f"1 axiom suite ({len(results)} checks, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_nested_chain_harness():
    t0 = time.monotonic()
    grid = line_grid(0.0, 1.0, 101)
    fam = metric_chain_family(grid, 2.0, 6)
    results = nested_chain_suite(fam, cap=26, rng=random.Random(0))
    elapsed = time.monotonic() - t0
    ok = all(r.passed for r in results) and elapsed < 30.0
    report(f"2 nested-chain harness (100+100 runs, {elapsed:.1f}s)", ok)


def test_criterion_3_iterated_contractions():
    t0 = time.monotonic()
    sc = get_scenario("iterated_contractions")
    A = sc.attractor_points()
    om = omega_limit(sc.testsets["whole"], sc.filter_basis, sc.action, sc.family)
    omega_ok = sets_equal_at_resolution(om.mask, A, sc.family)

    rep = attracts(A, sc.testsets["whole"], sc.filter_basis, sc.action, sc.family)
    # closed-form attraction bound: least n with L**n * delta < eps, where L
    # is the contraction factor and delta the largest distance from an
    # argument value to a fixed point; idx is the chain level of radius eps.
    # A point's coordinates are its table, one value per argument.
    L = 0.5
    args = (-1.0, 1.0)  # the builder's argument grid
    fixed = [sc.space.points[i].coords[0] for i in iter_bits(A)]
    delta = max(abs(z - xf) for z in args for xf in fixed)
    eps_target = 0.01
    bound = next(n for n in range(1, 64) if L**n * delta < eps_target)
    radii = [sc.params["eps0"] * 0.25**i for i in range(sc.params["chain_depth"] + 1)]
    idx = radii.index(eps_target) if eps_target in radii else 4
    level_ok = (
        rep.attracted
        and bound == 8  # least n with (1/2)**n * 2 < 0.01, exact integer comparison
        and rep.levels[idx] <= bound
    )
    elapsed = time.monotonic() - t0
    ok = omega_ok and level_ok and elapsed < 20.0
    report(
        f"3 contraction reproduction (level {rep.levels[idx]} <= {bound}, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_4_decay_counterexample():
    t0 = time.monotonic()
    sc = get_scenario("exp_decay")
    A = sc.attractor_points()
    unif = verify_uniform(
        A, sc.points_sample, sc.filter_basis, sc.action, sc.family, sc.declared.cap
    )
    rep = attracts(A, sc.testsets["orbit-star"], sc.filter_basis, sc.action, sc.family)
    # the filter level at which a witness escapes to the function of norm
    # 2*sqrt(2)
    fail_idx = 2
    norm_ok = False
    if not rep.attracted and fail_idx in rep.failures:
        el, z, img = rep.failures[fail_idx]
        # the coordinates are the flattened table: the value at argument 1 is
        # the second pair
        norm = math.hypot(*sc.space.points[img].coords[2:])
        norm_ok = abs(norm - 2.0 * math.sqrt(2.0)) < 1e-12 and norm > 2.0
    eq = check_equivalence(sc)
    taxonomy_ok = not eq.taxonomy.passed("asymptotically_compact")
    elapsed = time.monotonic() - t0
    ok = unif.all_passed and norm_ok and taxonomy_ok and elapsed < 20.0
    report(f"4 decay counterexample (norm 2*sqrt(2), {elapsed:.1f}s)", ok)


def _spread_bound_holds(sc, testset) -> bool:
    # the builder's argument grid, the first argument, the level-1 chain
    # radius and the seeds' Lipschitz constant; a point's coordinates are its
    # table, one value per argument
    args = (-1.0, 0.0, 1.0)
    tables = [p.coords for p in sc.space.points]
    first = args[0]
    d1 = sc.params["eps0"] * 0.25
    K = 1.0
    pts = list(iter_bits(testset))
    # the derivation needs the test set inside a star of the declared center
    h = sc.attractor_points()
    level1 = sc.family.coverings[1]
    if testset & ~level1.star_mask(h):
        return False
    for i, f in enumerate(pts):
        for g in pts[i:]:
            for j, z in enumerate(args):
                spread = abs(tables[f][j] - tables[g][j])
                if not spread < 2 * K * abs(z - first) + 4 * d1:
                    return False
    return True


def test_criterion_5_composition():
    t0 = time.monotonic()
    sc = get_scenario("composition")
    A = sc.attractor_points()
    glob = verify_global(
        A, sc.testsets, sc.filter_basis, sc.action, sc.family, sc.declared.cap
    )
    unif = verify_uniform(
        A, sc.points_sample, sc.filter_basis, sc.action, sc.family, sc.declared.cap
    )
    rng = random.Random(1)
    all_testsets = dict(sc.testsets)
    all_testsets.update(sc.random_bounded_testsets(rng, count=10))
    spread_ok = all(_spread_bound_holds(sc, T) for T in all_testsets.values())

    shifted = get_scenario("composition", x0=0.5)
    As = shifted.attractor_points()
    assert shifted.expected.attractor == ("i[0.5]",)
    om = omega_limit(
        shifted.testsets["whole"], shifted.filter_basis, shifted.action, shifted.family
    )
    shifted_ok = sets_equal_at_resolution(om.mask, As, shifted.family)
    elapsed = time.monotonic() - t0
    ok = glob.all_passed and unif.all_passed and spread_ok and shifted_ok and elapsed < 30.0
    report(f"5 composition reproduction ({elapsed:.1f}s)", ok)


def test_criterion_6_theorem_consistency():
    violations = []
    for name in SCENARIO_NAMES:
        sc = get_scenario(name)
        eq = check_equivalence(sc)
        # (a) a verified global attractor verifies uniformly
        if eq.global_verdict.all_passed and not eq.uniform_verdict.all_passed:
            violations.append(f"{name}: global without uniform")
        # (b) a verified global attractor forces the dissipative taxonomy
        if eq.global_verdict.all_passed:
            for check in (
                "eventually_bounded",
                "bounded_dissipative",
                "asymptotically_compact",
            ):
                if not eq.taxonomy.passed(check):
                    violations.append(f"{name}: global but {check} fails")
        # (c) asymptotically compact forces limit compact; on these complete
        # finite discretizations the converse is exercised as well
        if eq.taxonomy.passed("asymptotically_compact") and not eq.taxonomy.passed(
            "limit_compact"
        ):
            violations.append(f"{name}: asymptotically compact but not limit compact")
        if eq.taxonomy.passed("limit_compact") and not eq.taxonomy.passed(
            "asymptotically_compact"
        ):
            violations.append(f"{name}: limit compact but not asymptotically compact")
        # (d) the two attraction formulations agree
        A = sc.attractor_points()
        for tname, T in sc.testsets.items():
            rep = attracts(A, T, sc.filter_basis, sc.action, sc.family)
            if rep.attracted != prox_form_attracts(A, T, sc.filter_basis, sc.action, sc.family):
                violations.append(f"{name}/{tname}: attraction formulations disagree")
        # (e) independently constructed candidates coincide where a global
        # attractor exists
        if sc.expected.kind in ("both", "global-only"):
            fam_a = {"whole": sc.testsets.get("whole", next(iter(sc.testsets.values())))}
            rng = random.Random(11)
            fam_b = sc.random_bounded_testsets(rng, count=8)
            fam_b["whole2"] = sc.testsets.get("whole", next(iter(sc.testsets.values())))
            A1 = construct_candidate(fam_a, sc.filter_basis, sc.action, sc.family)
            A2 = construct_candidate(fam_b, sc.filter_basis, sc.action, sc.family)
            uniq = check_uniqueness(A1, A2, {"declared": A}, sc.family)
            if not uniq.all_passed:
                failed = [c.witness for c in uniq.checks if not c.passed]
                violations.append(f"{name}: candidates differ: {failed}")
    report(f"6 theorem consistency ({len(violations)} violations)", not violations)


def test_criterion_7_hypothesis_checker():
    F = integer_tails(nat_add(), depth=10, window=4)
    additive = check_hypotheses(F, max_level=max(0, F.depth - 4))
    additive_ok = additive.all_passed

    F = integer_tails(nat_mul(), depth=10, window=4, start=1)
    # the checker tests the elements the semigroup samples
    sem = dataclasses.replace(F.semigroup, sample=lambda _: (1, 2, 3))
    multiplicative = check_hypotheses(
        dataclasses.replace(F, semigroup=sem), max_level=max(0, F.depth - 4)
    )
    # the blocker is odd: odd numbers never lie in a doubled tail
    mult_ok = multiplicative.check("within_right_translate") == CheckResult(
        "within_right_translate", False, "s=2 level=0 blocker=1"
    )
    report("7 hypothesis checker (additive pass, doubled-tail odd witness)", additive_ok and mult_ok)


def test_criterion_8_determinism(tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        code = cli_main(
            [
                "attractor",
                "--scenario",
                "composition",
                "--seed",
                "42",
                "--budget",
                "8",
                "--out",
                str(p),
            ]
        )
        assert code == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report("8 determinism (byte-identical reports)", identical)
