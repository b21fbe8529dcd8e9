"""Cross-cutting limit-set invariants, exercised per scenario."""

import random

import pytest

from coverdyn.attractor import check_equivalence, construct_candidate
from coverdyn.dynamics import attracts, check_hypotheses, omega_limit, orbit_mask
from coverdyn.proximity import sets_equal_at_resolution, subset_at_resolution
from coverdyn.scenarios import get_scenario
from coverdyn.space import iter_bits

NAMES = ("decay_grid", "iterated_contractions", "composition", "exp_decay")


@pytest.fixture(scope="module")
def scenarios():
    return {name: get_scenario(name) for name in NAMES}


@pytest.fixture(scope="module")
def hypothesis_reports(scenarios):
    return {
        name: check_hypotheses(sc.filter_basis, max_level=max(0, sc.filter_basis.depth - 6))
        for name, sc in scenarios.items()
    }


@pytest.mark.parametrize("name", NAMES)
def test_omega_forward_invariant_under_h1(name, scenarios, hypothesis_reports):
    sc = scenarios[name]
    if not hypothesis_reports[name].passed("left_translate_into"):
        pytest.skip("left-translation hypothesis not verified")
    for tname, Y in sc.testsets.items():
        om = omega_limit(Y, sc.filter_basis, sc.action, sc.family).mask
        if not om:
            continue
        image = orbit_mask(0, om, sc.action, sc.filter_basis)
        assert subset_at_resolution(image, om, sc.family), (name, tname)


@pytest.mark.parametrize("name", NAMES)
def test_omega_invariant_under_h1_h4(name, scenarios, hypothesis_reports):
    # full invariance needs asymptotic compactness on top of the two
    # translation hypotheses; forward invariance alone needs only the first
    rep = hypothesis_reports[name]
    sc = scenarios[name]
    if not (
        rep.passed("left_translate_into") and rep.passed("within_left_translate")
    ):
        pytest.skip("translation hypotheses not verified")
    if not check_equivalence(sc).taxonomy.passed("asymptotically_compact"):
        pytest.skip("asymptotic compactness not verified")
    for tname, Y in sc.testsets.items():
        om = omega_limit(Y, sc.filter_basis, sc.action, sc.family).mask
        if not om:
            continue
        for s in sc.filter_basis.sampler(0)[:3]:
            image = 0
            for i in iter_bits(om):
                image |= 1 << sc.action.apply_fn(s, i)
            assert sets_equal_at_resolution(image, om, sc.family), (name, tname, s)


@pytest.mark.parametrize("name", NAMES)
def test_limit_set_minimality(name, scenarios):
    # the limit set sits inside every closed set that attracts the test set
    sc = scenarios[name]
    eq = check_equivalence(sc)
    if not eq.taxonomy.passed("asymptotically_compact"):
        pytest.skip("minimality is asserted for asymptotically compact runs")
    candidates = {
        "attractor-closure": sc.family.closure_mask(sc.attractor_points()),
    }
    for tname, Y in sc.testsets.items():
        om = omega_limit(Y, sc.filter_basis, sc.action, sc.family).mask
        for kname, K in candidates.items():
            rep = attracts(K, Y, sc.filter_basis, sc.action, sc.family)
            if not rep.attracted:
                continue
            assert subset_at_resolution(om, K, sc.family), (name, tname, kname)


@pytest.mark.parametrize("name", NAMES)
def test_eventually_compact_route_implies_asymptotic_compactness(
    name, scenarios, hypothesis_reports
):
    sc = scenarios[name]
    rep = hypothesis_reports[name]
    eq = check_equivalence(sc)
    if not (
        sc.declared.compact_witness is not None
        and eq.eventually_compact.passed
        and eq.taxonomy.passed("eventually_bounded")
        and rep.passed("within_left_translate")
    ):
        pytest.skip("route hypotheses not all verified")
    assert eq.taxonomy.passed("asymptotically_compact"), name


@pytest.mark.parametrize("name", NAMES)
def test_constructed_candidate_attracts_its_testsets(name, scenarios):
    sc = scenarios[name]
    eq = check_equivalence(sc)
    if not eq.taxonomy.passed("asymptotically_compact"):
        pytest.skip("limit sets attract their own sets under asymptotic compactness")
    cand = construct_candidate(sc.testsets, sc.filter_basis, sc.action, sc.family)
    for tname, Y in sc.testsets.items():
        rep = attracts(cand, Y, sc.filter_basis, sc.action, sc.family)
        assert rep.attracted, (name, tname)


def test_omega_limit_respects_random_bounded_sets():
    # limit sets of random bounded sets stay inside the global attractor
    rng = random.Random(13)
    for name in ("decay_grid", "iterated_contractions", "composition"):
        sc = get_scenario(name)
        A = sc.attractor_points()
        for tname, Y in sc.random_bounded_testsets(rng, count=8).items():
            om = omega_limit(Y, sc.filter_basis, sc.action, sc.family).mask
            assert subset_at_resolution(om, A, sc.family), (name, tname)


@pytest.mark.parametrize("name", ("decay_grid", "exp_decay"))
def test_omega_matches_cluster_point_oracle(name):
    # second route: a point belongs to the limit set exactly when every
    # level's sampled orbit meets one of its stars at every covering index
    sc = get_scenario(name)
    space, fam, F = sc.space, sc.family, sc.filter_basis
    for ymask in (sc.testsets["seed"],):
        rep = omega_limit(ymask, F, sc.action, fam)
        oracle = 0
        for p in range(space.n):
            ok = True
            for k in F.levels():
                om = orbit_mask(k, ymask, sc.action, F)
                if not all(
                    om & fam.coverings[i].point_star[p] for i in range(fam.size)
                ):
                    ok = False
                    break
            if ok:
                oracle |= 1 << p
        assert rep.mask == oracle


def test_prolongational_witnesses_certified():
    sc = get_scenario("decay_grid")
    from coverdyn.dynamics import prolongational_limit

    fine = sc.family.coverings[-1]
    rep = prolongational_limit(50, sc.filter_basis, sc.action, sc.family)
    assert rep.mask
    assert sum(1 << i for i in rep.witnesses) == rep.mask
    for i, (el, src) in rep.witnesses.items():
        img = sc.action.apply_fn(el, src)
        assert (fine.point_star[i] >> img) & 1
