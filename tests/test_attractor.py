import pytest

from coverdyn.attractor import (
    UnboundedTestset,
    check_equivalence,
    check_uniqueness,
    construct_candidate,
    verify_global,
    verify_uniform,
)
from coverdyn.covering import CheckList, CheckResult, chain_family, metric_chain_family
from coverdyn.proximity import sets_equal_at_resolution
from coverdyn.scenarios import get_scenario


@pytest.fixture(scope="module")
def grid_sc():
    return get_scenario("decay_grid")


def test_construct_candidate_decay(grid_sc):
    sc = grid_sc
    cand = construct_candidate(
        {"whole": sc.testsets["whole"]}, sc.filter_basis, sc.action, sc.family
    )
    assert sets_equal_at_resolution(cand, sc.attractor_points(), sc.family)


def test_construct_candidate_unbounded():
    sc = get_scenario("decay_grid")
    fine_only = chain_family(sc.space, sc.family.coverings[2:])
    with pytest.raises(UnboundedTestset):
        construct_candidate(
            {"whole": sc.testsets["whole"]}, sc.filter_basis, sc.action, fine_only
        )


def test_verify_global_decay(grid_sc):
    sc = grid_sc
    v = verify_global(
        sc.attractor_points(),
        sc.testsets,
        sc.filter_basis,
        sc.action,
        sc.family,
        sc.cap,
    )
    assert v.all_passed, [c for c in v.checks if not c.passed]
    assert v.candidate == ("(0)",)


def test_verify_global_empty_candidate(grid_sc):
    sc = grid_sc
    v = verify_global(
        0, sc.testsets, sc.filter_basis, sc.action, sc.family, 10
    )
    assert not v.passed("nonempty")
    assert not v.all_passed


def test_verify_uniform_decay(grid_sc):
    sc = grid_sc
    v = verify_uniform(
        sc.attractor_points(),
        sc.points_sample,
        sc.filter_basis,
        sc.action,
        sc.family,
        sc.cap,
    )
    assert v.all_passed, [c for c in v.checks if not c.passed]


def test_verify_uniform_missing_limit_point():
    # dropping one fixed point from the candidate leaves some sampled
    # prolongational limit outside it
    sc = get_scenario("iterated_contractions")
    cand = sc.attractor_points() & ~sc.space.mask_of([sc.space.index_of("i[0.5]")])
    v = verify_uniform(
        cand,
        sc.space.mask_of([sc.space.index_of("pow[0.5]e1")]),
        sc.filter_basis,
        sc.action,
        sc.family,
        sc.cap,
    )
    chk = v.check("prolongational_limits_inside")
    assert not chk.passed
    assert chk.witness is not None


def test_verify_global_noncompact_candidate(grid_sc):
    # the whole space fails the measure-zero check at the configured cap
    sc = grid_sc
    sharp = metric_chain_family(sc.space, 2.0, 5)
    v = verify_global(
        sc.space.full_mask,
        sc.testsets,
        sc.filter_basis,
        sc.action,
        sharp,
        cap=10,
    )
    assert not v.passed("compact")


def test_uniqueness_independent_constructions():
    sc = get_scenario("iterated_contractions")
    fam_a = {"whole": sc.testsets["whole"]}
    seeds = {
        f"seed{x}": sc.space.mask_of([sc.space.index_of(f"pow[{x}]e1")])
        for x in ("0", "0.25", "0.5", "0.75", "1")
    }
    A1 = construct_candidate(fam_a, sc.filter_basis, sc.action, sc.family)
    A2 = construct_candidate(seeds, sc.filter_basis, sc.action, sc.family)
    rep = check_uniqueness(A1, A2, {"attractor": sc.attractor_points()}, sc.family)
    assert rep == CheckList(
        checks=(CheckResult("contains:attractor", True), CheckResult("equal_at_resolution", True))
    )


def test_uniqueness_negative_control(grid_sc):
    # a "bounded invariant" set that escapes the attractor must be reported
    sc = grid_sc
    runaway = sc.space.mask_of([80])
    rep = check_uniqueness(
        sc.attractor_points(),
        sc.attractor_points(),
        {"runaway": runaway},
        sc.family,
    )
    assert rep == CheckList(checks=(
        CheckResult("contains:runaway", False, "bounded invariant set 'runaway' escapes the attractor"),
        CheckResult("equal_at_resolution", True),
    ))


@pytest.mark.parametrize(
    "name", ["decay_grid", "iterated_contractions", "composition", "exp_decay"]
)
def test_equivalence_matches_expected_kind(name):
    sc = get_scenario(name)
    rep = check_equivalence(sc)
    assert rep.kind == sc.expected.kind
    assert [c.name for c in rep.links.checks] == ["forward", "converse"]
    assert rep.links.passed("forward")
    if name == "exp_decay":
        assert rep.links.check("converse") == CheckResult(
            "converse", True, "not applicable: asymptotically_compact fails"
        )
        assert not rep.taxonomy.passed("asymptotically_compact")
    if sc.expected.hypotheses:
        for hname, expect in sc.expected.hypotheses.items():
            assert rep.hypotheses.passed(hname) == expect, hname


def test_point_dissipative_existence_route():
    # where the translation hypotheses, eventual compactness, eventual
    # boundedness, and point dissipativity all check out, the constructed
    # candidate must verify globally
    for name in ("decay_grid", "composition"):
        sc = get_scenario(name)
        rep = check_equivalence(sc)
        assert rep.hypotheses.all_passed
        assert rep.eventually_compact.passed
        assert rep.taxonomy.passed("eventually_bounded")
        assert rep.taxonomy.passed("point_dissipative")
        cand = construct_candidate(
            sc.testsets, sc.filter_basis, sc.action, sc.family
        )
        v = verify_global(
            cand, sc.testsets, sc.filter_basis, sc.action, sc.family, sc.cap
        )
        assert v.all_passed, [c for c in v.checks if not c.passed]


def test_construct_candidate_fixed_point_of_invariant_compact():
    # the limit set of an invariant compact set is the set itself at resolution
    sc = get_scenario("iterated_contractions")
    A = sc.attractor_points()
    cand = construct_candidate(
        {"attractor": A}, sc.filter_basis, sc.action, sc.family
    )
    assert sets_equal_at_resolution(cand, A, sc.family)
