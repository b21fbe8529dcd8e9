import argparse
import configparser
import inspect
import json
import re
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coverdyn.cli import build_parser, main
from coverdyn.compactness import CoverSearchBudgetExceeded
from coverdyn.scenarios import BUILTIN_SCENARIOS, CUSTOM_SCHEMA, get_scenario, load_system
from coverdyn.space import CoverdynError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_axioms_scenario_passes(capsys):
    code, out = run(
        capsys, "verify-axioms", "--scenario", "decay_grid", "--seed", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(r["verdict"] == "pass" for r in payload["results"])
    for r in payload["results"]:
        assert {"name", "verdict", "budget", "resolution"} <= set(r)


def test_verify_axioms_negative_control(capsys):
    code, out = run(
        capsys,
        "verify-axioms",
        "--scenario",
        "decay_grid",
        "--mutate",
        "prox-asymmetry",
    )
    assert code == 1
    payload = json.loads(out)
    failed = {r["name"] for r in payload["results"] if r["verdict"] == "fail"}
    assert "prox_symmetry" in failed
    assert "prox_triangle_1_intermediate" in failed


def test_omega_known_target(capsys):
    code, out = run(capsys, "omega", "--scenario", "decay_grid", "--target", "seed")
    assert code == 0
    payload = json.loads(out)
    assert "(0)" in payload["limit_set"]["points"]
    assert payload["limit_set"]["witnesses"]


def test_omega_unknown_target(capsys):
    code, _ = run(capsys, "omega", "--scenario", "decay_grid", "--target", "nope")
    assert code == 2


def test_omega_requires_system(capsys):
    code, _ = run(capsys, "omega", "--target", "seed")
    assert code == 2


def test_bad_config_path(capsys):
    code, _ = run(capsys, "attractor", "--config", "/no/such/file.cfg")
    assert code == 2


def test_attractor_exit_codes(capsys):
    code, out = run(
        capsys, "attractor", "--scenario", "exp_decay", "--budget", "6", "--seed", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "global-uniform-only"
    assert payload["expectations_met"] is True


def test_attractor_csv_format(capsys):
    code, out = run(
        capsys,
        "attractor",
        "--scenario",
        "decay_grid",
        "--budget",
        "4",
        "--format",
        "csv",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "name,verdict,witness,budget,resolution"
    assert any(line.startswith("expectations,pass") for line in out.splitlines())


def test_scenario_summary(capsys):
    code, out = run(capsys, "scenario", "composition")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected"]["kind"] == "both"


def test_determinism_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(
            [
                "attractor",
                "--scenario",
                "decay_grid",
                "--seed",
                "5",
                "--budget",
                "6",
                "--out",
                str(path),
            ]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_determinism_seed_sensitivity(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, seed in ((a, "5"), (b, "6")):
        main(
            [
                "attractor",
                "--scenario",
                "decay_grid",
                "--seed",
                seed,
                "--budget",
                "6",
                "--out",
                str(path),
            ]
        )
    assert a.read_bytes() != b.read_bytes()


def test_max_level_and_resolution_flags(capsys):
    code, out = run(
        capsys,
        "omega",
        "--scenario",
        "decay_grid",
        "--target",
        "seed",
        "--max-level",
        "6",
        "--resolution",
        "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["limit_set"]["truncation"] == 6
    assert payload["limit_set"]["resolution"] == 2


def test_attractor_cap_overrides_the_declared_cap(capsys):
    # at cap 3 the contraction attractor has no star cover, so the run that
    # passes at its declared cap fails its compactness rows
    code, out = run(capsys, "attractor", "--scenario", "iterated_contractions", "--cap", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["config"]["cap"] == 3
    rows = {r["name"]: r for r in payload["results"]}
    assert rows["global.compact"]["verdict"] == "fail"
    assert rows["global.compact"]["witness"] == "no star cover within cap 3"
    # decay_grid's attractor is one point: cap 1 covers it
    code, out = run(capsys, "attractor", "--scenario", "decay_grid", "--cap", "1")
    assert code == 0
    assert json.loads(out)["config"]["cap"] == 1


class Spied(CoverdynError):
    """Ends a command at its spied call."""


@pytest.mark.parametrize("cap", [None, 1, 3])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_cap_flag_sets_the_scenario_cap_once_at_load(capsys, monkeypatch, name, cap):
    # both commands that read a scenario's cap see --cap k, or else the
    # builder's cap; the spies record it and stop the command there
    from coverdyn import cli

    seen = []

    def measure(family, **kwargs):
        seen.append(kwargs["cap"])
        return []

    def equivalence(sc):
        seen.append(sc.cap)
        raise Spied("spied")

    monkeypatch.setattr(cli, "measure_suite", measure)
    monkeypatch.setattr(cli, "check_equivalence", equivalence)
    flags = () if cap is None else ("--cap", str(cap))
    assert run(capsys, "verify-axioms", "--scenario", name, *flags)[0] == 0
    assert run(capsys, "attractor", "--scenario", name, *flags)[0] == 2
    expected = get_scenario(name).cap if cap is None else cap
    assert seen == [expected, expected]


@pytest.mark.parametrize("flags", [(), ("--resolution", "2")])
def test_resolution_prefix_makes_no_second_relation_computation(capsys, monkeypatch, flags):
    # the --resolution prefix reads the top-left block of the chain's rows
    from coverdyn import covering

    calls = []
    real = covering.relation_rows

    def counted(coverings):
        calls.append(len(coverings))
        return real(coverings)

    monkeypatch.setattr(covering, "relation_rows", counted)
    code, out = run(capsys, "attractor", "--scenario", "decay_grid", *flags)
    assert code == 0
    assert calls == [4]


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_limit_witnesses_are_built_only_by_the_omega_report(capsys, monkeypatch, name):
    # the attractor path reads limit sets as masks and builds no witness;
    # every module of the package that binds the name is spied on
    from coverdyn import dynamics

    calls = []
    real = dynamics.limit_witnesses

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in [m for n, m in sys.modules.items() if n.startswith("coverdyn.")]:
        if getattr(module, "limit_witnesses", None) is real:
            monkeypatch.setattr(module, "limit_witnesses", counted)
    code, _ = run(capsys, "attractor", "--scenario", name)
    assert code == 0
    assert calls == []
    sc = get_scenario(name)
    code, out = run(capsys, "omega", "--scenario", name, "--target", min(sc.testsets))
    assert code == 0
    assert len(calls) == 1
    block = json.loads(out)["limit_set"]
    assert block["witnesses"]
    # the block states the bounds that the limit set is computed up to
    assert (block["resolution"], block["truncation"]) == (sc.family.depth, sc.filter_basis.depth)


def test_omega_contraction_whole_lists_attractor(capsys):
    code, out = run(
        capsys, "omega", "--scenario", "iterated_contractions", "--target", "whole"
    )
    assert code == 0
    payload = json.loads(out)
    pts = set(payload["limit_set"]["points"])
    assert {"i[0]", "i[0.25]", "i[0.5]", "i[0.75]", "i[1]"} <= pts


def test_verify_axioms_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        code = main(
            [
                "verify-axioms",
                "--scenario",
                "composition",
                "--seed",
                "3",
                "--out",
                str(p),
            ]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "flag, value",
    [("--max-level", "-3"), ("--resolution", "-1"), ("--cap", "0"), ("--budget", "-5")],
)
def test_out_of_range_flag_is_usage_error(capsys, flag, value):
    code = main(["omega", "--scenario", "decay_grid", "--target", "seed", flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage:")
    assert f"argument {flag}: must be at least" in err
    assert "Traceback" not in err


CUSTOM = """
[scenario]
kind = "custom"

[space]
kind = "line_grid"
count = 21

[family]
kind = "metric_chain"
eps0 = 2.0
depth = 2

[action]
kind = "halving_decay"

[filter]
kind = "integer_tails"
depth = 4
"""
INTEGER_TAILS = 'kind = "integer_tails"\ndepth = 4'
README = Path(__file__).resolve().parent.parent / "README.md"
INI_BLOCKS = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
README_CUSTOM = next(text for text in INI_BLOCKS if 'kind = "custom"' in text)
CONFIGS = {
    "custom-valid": (CUSTOM, 0),
    "unknown-parameter": ('[scenario]\nkind = "decay_grid"\nbogus = 3\n', 2),
    # keys and sections that no loader reads used to be ignored: these ran
    # with window 4, the default cap, and a filter nobody asked for
    "readme-misspelt-key-and-section": (
        README_CUSTOM.replace("window = 4", "window = 4\nwindw = 1") + "\n[declard]\ncap = 1\n",
        2,
    ),
    "readme-misspelt-section": (README_CUSTOM + "\n[declard]\ncap = 1\n", 2),
    "decay_grid-filter-section": (
        '[scenario]\nkind = "decay_grid"\ncount = 101\n\n[filter]\ndepth = 3\n',
        2,
    ),
    # keys that depend on a kind follow the kind
    "explicit-filter-window": (
        CUSTOM.replace(INTEGER_TAILS, 'kind = "explicit"\nlevels = [[1, 2], [2]]\nwindow = 4'),
        2,
    ),
    "integer-tails-levels": (CUSTOM + "levels = [[1, 2], [2]]\n", 2),
    "semigroup-unknown-key": (CUSTOM + "\n[semigroup]\nunit = 0\n", 2),
    # configparser hands its DEFAULT keys to every section
    "default-section-key": (CUSTOM + "\n[DEFAULT]\nx = 1\n", 2),
    "section-kind-list": (CUSTOM.replace('kind = "line_grid"', "kind = [1]"), 2),
    # a lone % is a configparser interpolation error, raised as the key is read
    "value-interpolation-error": (CUSTOM.replace("count = 21", "count = %21"), 2),
    "section-kind-interpolation-error": (CUSTOM.replace('kind = "line_grid"', 'kind = "%"'), 2),
    # configparser folds key case, and the schema keeps that
    "key-case-folded": (CUSTOM.replace("count = 21", "Count = 21"), 0),
    "empty-grid": ('[scenario]\nkind = "decay_grid"\ncount = 0\n', 2),
    "count-not-a-number": ('[scenario]\nkind = "decay_grid"\ncount = "abc"\n', 2),
    "snap-tolerance": ('[scenario]\nkind = "decay_grid"\nchain_depth = 9\n', 2),
    "negative-eps0": (CUSTOM.replace("eps0 = 2.0", "eps0 = -1.0"), 2),
    "test-set-index": (CUSTOM + "\n[testsets]\nbad = [99]\n", 2),
    # the attractor command adds random test sets rand0, rand1, ... over the
    # config's, and replaced one of the same name, the absorbing set included
    "test-set-name-rand": (CUSTOM + "\n[testsets]\nrand0 = [20]\n", 2),
    "filter-not-nested": (
        CUSTOM.replace(INTEGER_TAILS, 'kind = "explicit"\nlevels = [[1, 2], [3]]'),
        2,
    ),
    "not-utf-8": (b"\xff\xfe[scenario]\n", 2),
    # a custom system named for a built-in serialized as that built-in
    "custom-name-builtin": (CUSTOM.replace('kind = "custom"', 'kind = "custom"\nname = "composition"'), 2),
    **{
        f"custom-name-{label}": (CUSTOM.replace('kind = "custom"', f'kind = "custom"\nname = {value}'), 2)
        for label, value in (("int", "5"), ("list", "[1]"), ("object", '{"a": 1}'))
    },
    **{
        f"{kind}-depth-negative": (f'[scenario]\nkind = "{kind}"\ndepth = -1\n', 2)
        for kind in ("decay_grid", "iterated_contractions", "composition")
    },
    "integer-tails-depth-negative": (
        CUSTOM.replace(INTEGER_TAILS, 'kind = "integer_tails"\ndepth = -1'),
        2,
    ),
    "explicit-filter-no-levels": (
        CUSTOM.replace(INTEGER_TAILS, 'kind = "explicit"\nlevels = []'),
        2,
    ),
    "cap-zero": (CUSTOM + "\n[declared]\ncap = 0\n", 2),
    "cap-negative": (CUSTOM + "\n[declared]\ncap = -3\n", 2),
    "test-set-index-negative": (CUSTOM + "\n[testsets]\nseed = [-1]\n", 2),
    "test-set-index-float": (CUSTOM + "\n[testsets]\nseed = [20.7]\n", 2),
    "test-set-index-bool": (CUSTOM + "\n[testsets]\nseed = [true]\n", 2),
    "attractor-index-negative": (CUSTOM + "\n[expectations]\nattractor = [-21]\n", 2),
    # int() used to truncate these: 21.9 points, 2.5 levels, window true = 1, cap 2.5 = 2
    "space-count-float": (CUSTOM.replace("count = 21", "count = 21.9"), 2),
    "family-depth-float": (CUSTOM.replace("eps0 = 2.0\ndepth = 2", "eps0 = 2.0\ndepth = 2.5"), 2),
    "filter-depth-float": (CUSTOM.replace(INTEGER_TAILS, 'kind = "integer_tails"\ndepth = 4.5'), 2),
    "filter-window-bool": (CUSTOM + "window = true\n", 2),
    "cap-float": (CUSTOM + "\n[declared]\ncap = 2.5\n", 2),
    # start/stop went in untyped and eps0 through float(): these loaded as 0.0, 1.0, 1.0, 2.0
    "start-bool": (CUSTOM.replace("count = 21", "start = false\ncount = 21"), 2),
    "stop-bool": (CUSTOM.replace("count = 21", "stop = true\ncount = 21"), 2),
    "eps0-bool": (CUSTOM.replace("eps0 = 2.0\ndepth = 2", "eps0 = true\ndepth = 1"), 2),
    "eps0-string": (CUSTOM.replace("eps0 = 2.0", 'eps0 = "2.0"'), 2),
    # semigroup elements used to load unchecked and fail once the action ran
    **{
        f"witness-{shape}": (CUSTOM + f"\n[declared]\neventually_compact_witness = {value}\n", 2)
        for shape, value in (
            ("string", '"x"'),
            ("negative", "-1"),
            ("float", "1.5"),
            ("list", "[1]"),
            ("bool", "true"),
        )
    },
    "filter-levels-negative": (
        CUSTOM.replace(INTEGER_TAILS, 'kind = "explicit"\nlevels = [[-1, 2], [2]]'),
        2,
    ),
    "filter-levels-strings": (
        CUSTOM.replace(INTEGER_TAILS, 'kind = "explicit"\nlevels = ["ab", "b"]'),
        2,
    ),
    "expectations-kind-unknown": (CUSTOM + '\n[expectations]\nkind = "bogus"\n', 2),
    # nearest-point halving was not associative past 101 points; floor
    # halving is halving_decay
    "action-pow2_decay": (CUSTOM.replace('kind = "halving_decay"', 'kind = "pow2_decay"'), 2),
    # JSON reads these as floats; they used to fail later as a duplicate point id
    **{
        f"{key}-{value}": (CUSTOM.replace("count = 21", f"{key} = {value}\ncount = 21"), 2)
        for key in ("start", "stop")
        for value in ("Infinity", "-Infinity", "NaN")
    },
    "eps0-Infinity": (CUSTOM.replace("eps0 = 2.0", "eps0 = Infinity"), 2),
    "span-overflows": (CUSTOM.replace("count = 21", "start = -1e308\nstop = 1e308\ncount = 21"), 2),
    "space-kind-unsupported": (CUSTOM.replace('kind = "line_grid"', 'kind = "circle"'), 2),
    "family-kind-unsupported": (CUSTOM.replace('kind = "metric_chain"', 'kind = "open_coverings"'), 2),
    "semigroup-kind-unsupported": (CUSTOM + '\n[semigroup]\nkind = "nat_mul"\n', 2),
    "filter-kind-unsupported": (CUSTOM.replace(INTEGER_TAILS, 'kind = "vector_tails"\ndepth = 4'), 2),
    "test-set-empty": (CUSTOM + "\n[testsets]\nnone = []\n", 2),
    # at radius 0.2 no covering relates 0 and 1, and the identity moves nothing
    "test-set-unbounded": (
        CUSTOM.replace('kind = "halving_decay"', 'kind = "identity"')
        .replace("eps0 = 2.0\ndepth = 2", "eps0 = 0.2\ndepth = 1")
        + '\n[testsets]\nwide = "all"\n',
        2,
    ),
    **{
        f"{kind}-{key}-bool": (f'[scenario]\nkind = "{kind}"\n{key} = {value}\n', 2)
        for kind, key, value in (
            ("decay_grid", "depth", "true"),
            ("exp_decay", "window", "true"),
            ("composition", "x0", "false"),
            ("iterated_contractions", "chain_depth", "true"),
        )
    },
    "space-count-missing": (CUSTOM.replace("count = 21\n", ""), 2),
    # exp_decay's truncation is the one its witness family is tuned to, so
    # depth is no parameter of it, not even at that value
    "exp_decay-depth-5": ('[scenario]\nkind = "exp_decay"\ndepth = 5\n', 2),
    "exp_decay-depth-22": ('[scenario]\nkind = "exp_decay"\ndepth = 22\n', 2),
    # window 0 empties the deepest level's sample
    "filter-window-zero": (CUSTOM + "window = 0\n", 2),
    # level 1001 of an integer tail basis lists nothing up to the enumeration
    # bound, so every translation hypothesis would hold on it vacuously
    "iterated_contractions-depth-1001": ('[scenario]\nkind = "iterated_contractions"\ndepth = 1001\n', 2),
    "filter-depth-1001": (CUSTOM.replace(INTEGER_TAILS, 'kind = "integer_tails"\ndepth = 1001'), 2),
    "filter-levels-empty-level": (
        CUSTOM.replace(INTEGER_TAILS, 'kind = "explicit"\nlevels = [[0, 1], []]'),
        2,
    ),
    "family-depth-negative": (CUSTOM.replace("eps0 = 2.0\ndepth = 2", "eps0 = 2.0\ndepth = -1"), 2),
    # negative radii leave every value ball empty
    "composition-eps0-negative": ('[scenario]\nkind = "composition"\neps0 = -1\n', 2),
    "test-set-int": (CUSTOM + "\n[testsets]\na = 3\n", 2),
    "filter-levels-int": (CUSTOM.replace(INTEGER_TAILS, 'kind = "explicit"\nlevels = 3'), 2),
    "filter-levels-int-level": (CUSTOM.replace(INTEGER_TAILS, 'kind = "explicit"\nlevels = [3]'), 2),
    # a scalar where a list of point indices belongs: the error names the key
    "expectations-attractor-int": (CUSTOM + "\n[expectations]\nattractor = 3\n", 2),
}
# the error line of each of these rows
MESSAGES = {
    "unknown-parameter": "error: unknown key [scenario] bogus\n",
    "readme-misspelt-key-and-section": "error: unknown key [filter] windw\n",
    "readme-misspelt-section": "error: unknown section [declard] for kind custom\n",
    "decay_grid-filter-section": "error: unknown section [filter] for kind decay_grid\n",
    "explicit-filter-window": "error: unknown key [filter] window\n",
    "integer-tails-levels": "error: unknown key [filter] levels\n",
    "semigroup-unknown-key": "error: unknown key [semigroup] unit\n",
    "default-section-key": "error: unknown key [scenario] x\n",
    "section-kind-list": "error: unsupported space kind [1]\n",
    "value-interpolation-error": (
        "error: bad value for [space] count: '%' must be followed by '%' or '(', found: '%21'\n"
    ),
    "space-count-missing": "error: missing [space] count\n",
    "exp_decay-depth-5": "error: unknown key [scenario] depth\n",
    "exp_decay-depth-22": "error: unknown key [scenario] depth\n",
    "filter-window-zero": "error: level 4 has an empty sample\n",
    "iterated_contractions-depth-1001": "error: level 1001 lists no element up to the enumeration bound 1000\n",
    "filter-depth-1001": "error: level 1001 lists no element up to the enumeration bound 1000\n",
    "filter-levels-empty-level": "error: level 1 has an empty sample\n",
    "family-depth-negative": "error: bad config value: depth must be nonnegative\n",
    "composition-eps0-negative": "error: bad config value: constraint at arg 0 empties every member\n",
    "test-set-int": 'error: [testsets] a: 3 is not "all" or a list of point indices\n',
    "filter-levels-int": "error: [filter] levels: 3 is not a list of lists of semigroup elements\n",
    "filter-levels-int-level": "error: [filter] levels: [3] is not a list of lists of semigroup elements\n",
    "expectations-attractor-int": "error: [expectations] attractor: 3 is not a list of point indices\n",
    "filter-levels-strings": (
        "error: [filter] levels: ['ab', 'b'] is not a list of lists of semigroup elements\n"
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bad_config_is_config_error(tmp_path, capsys, name):
    text, expected = CONFIGS[name]
    path = tmp_path / "system.ini"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code = main(["scenario", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == expected, err
    if expected:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert err == MESSAGES.get(name, err)
    else:
        assert err == ""


def test_random_test_set_name_names_its_key(tmp_path, capsys):
    path = tmp_path / "system.ini"
    path.write_text(CUSTOM + "\n[testsets]\nrand12 = [20]\nlow = [0]\n", encoding="utf-8")
    code = main(["attractor", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: [testsets] rand12: ")


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_config_number_names_its_key(tmp_path, capsys, value):
    path = tmp_path / "system.ini"
    path.write_text(CUSTOM.replace("count = 21", f"stop = {value}\ncount = 21"), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["attractor", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: [space] stop: ")
    assert captured.err.endswith(" is not a finite number\n")


def test_attractor_on_filter_without_levels_is_config_error(tmp_path, capsys):
    path = tmp_path / "system.ini"
    path.write_text(CONFIGS["decay_grid-depth-negative"][0], encoding="utf-8")
    code = main(["attractor", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_config_whose_chain_resolves_points_loads(tmp_path, capsys):
    # a custom config cannot declare resolution, and used to be rejected when
    # its chain separated the grid points; separation now follows the chain
    path = tmp_path / "system.ini"
    text = CUSTOM.replace('"halving_decay"', '"identity"')
    path.write_text(text.replace("eps0 = 2.0\ndepth = 2", "eps0 = 2.0\ndepth = 5"), encoding="utf-8")
    assert main(["scenario", "--config", str(path)]) == 0
    capsys.readouterr()
    main(["verify-axioms", "--config", str(path)])
    names = [r["name"] for r in json.loads(capsys.readouterr().out)["results"]]
    assert "prox_separates_points" in names


def test_config_grid_whose_points_share_ten_digits_loads(tmp_path, capsys):
    # distinct points of this grid share their 10-digit ids, which used to
    # be rejected as duplicates
    path = tmp_path / "system.ini"
    text = CUSTOM.replace("count = 21", "start = 1000000.0\nstop = 1000000.001\ncount = 11")
    path.write_text(text.replace("eps0 = 2.0", "eps0 = 0.004"), encoding="utf-8")
    code = main(["attractor", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "(1000000.0001000001)" in captured.out


def test_unbounded_random_draws_are_not_a_config_error(tmp_path, capsys):
    # the radius-0.5 balls of the coarsest level do not hold the whole grid,
    # so some random test sets are drawn unbounded; none may exit 2
    text = CUSTOM.replace('"halving_decay"', '"identity"').replace("eps0 = 2.0", "eps0 = 0.5")
    text = text.replace("depth = 4", "depth = 6") + "\n[testsets]\na = [0]\n"
    path = tmp_path / "system.ini"
    path.write_text(text, encoding="utf-8")
    code = main(["attractor", "--config", str(path)])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert captured.err == ""


def test_empty_expected_attractor_fails_as_an_empty_candidate(tmp_path, capsys):
    # the declared candidate is empty: every check of both verdicts fails,
    # the last rows with the "empty candidate" witness
    path = tmp_path / "system.ini"
    path.write_text(CUSTOM + "\n[expectations]\nattractor = []\n", encoding="utf-8")
    code = main(["attractor", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    rows = {r["name"]: r for r in json.loads(captured.out)["results"]}
    for name in ("global.attracts", "uniform.prolongational_limits_inside"):
        assert (rows[name]["verdict"], rows[name]["witness"]) == ("fail", "empty candidate")


def test_boundedness_laws_fail_where_stars_do_not_exhaust_the_space(tmp_path, capsys):
    # no star of this radius-0.2 chain holds the whole grid, so random draws
    # are unbounded; every set is totally bounded on a finite sample, so
    # both boundedness laws fail here, and they may presuppose a replete family
    path = tmp_path / "system.ini"
    text = CUSTOM.replace('"halving_decay"', '"identity"').replace("eps0 = 2.0\ndepth = 2", "eps0 = 0.2\ndepth = 1")
    path.write_text(text + "\n[testsets]\na = [0]\n", encoding="utf-8")
    code, out = run(capsys, "verify-axioms", "--config", str(path))
    assert code == 1
    failed = {r["name"]: r["witness"] for r in json.loads(out)["results"] if r["verdict"] != "pass"}
    assert failed == {
        "totally_bounded_implies_bounded": "['(0.2)', '(0.45)', '(0.65)', '(0.85)']",
        "star_of_bounded_is_bounded": "['(0.1)', '(0.4)']",
    }


@pytest.mark.parametrize("command", ["attractor", "omega", "verify-axioms"])
def test_one_point_decay_grid_loads(tmp_path, capsys, command):
    # its grid step used to divide by count - 1
    path = tmp_path / "system.ini"
    path.write_text('[scenario]\nkind = "decay_grid"\ncount = 1\n', encoding="utf-8")
    argv = [command, "--config", str(path)] + (["--target", "seed"] if command == "omega" else [])
    code = main(argv)
    assert (code, capsys.readouterr().err) == (0, "")


def test_readme_config_examples_load(tmp_path, capsys):
    assert INI_BLOCKS
    for text in INI_BLOCKS:
        load_system(text)
    path = tmp_path / "system.ini"
    path.write_text(README_CUSTOM, encoding="utf-8")
    assert main(["attractor", "--config", str(path)]) == 0, capsys.readouterr().err


def test_readme_library_sketch_runs(capsys):
    # the sketch is the documented API: the read rule of test_design_rules
    # counts an export as read only when a ```python block imports it
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for text in blocks:
        exec(compile(text, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"


KINDS = ("custom", "decay_grid", "line_grid", "metric_chain", "identity", "explicit", "wat")
BUILTINS = ("decay_grid", "exp_decay", "composition", "iterated_contractions")
BUILTIN_PARAMS = ("count", "chain_depth", "depth", "window", "eps0", "x0", "bogus")
# section -> (valid kinds, valid value per key) of a custom system
CUSTOM_SECTIONS = {
    "space": (("line_grid",), {"count": "21", "start": "0.0", "stop": "1.0"}),
    "family": (("metric_chain",), {"eps0": "2.0", "depth": "2"}),
    "action": (("halving_decay", "identity"), {}),
    "semigroup": (("nat_add",), {}),
    "filter": (
        ("integer_tails", "explicit"),
        {"depth": "4", "window": "4", "levels": "[[1, 2], [2]]"},
    ),
    "testsets": ((), {"whole": '"all"', "seed": "[20]"}),
    "declared": ((), {"cap": "3", "eventually_compact_witness": "5"}),
    "expectations": ((), {"attractor": "[0]", "kind": '"both"'}),
}
# small integers keep every drawn system desk-sized; large magnitudes are
# floats, which no count, depth or index accepts
VALUES = st.one_of(
    st.integers(-2, 12).map(str),
    st.floats(-3.0, 3.0, allow_nan=False).map(repr),
    st.sampled_from(
        ['"abc"', '"all"', "[]", "[0, 1]", "[99]", "[[1, 2], [2]]", "[[1]]", "null",
         "true", "{}", "%", "not-json", "[1.5]", "1e6", "1e12", "1e200", "-1e200"]
    ),
)


@st.composite
def config_texts(draw):
    """Config text near a valid system: one kind or value in five is perturbed."""
    kind = draw(st.sampled_from(("custom", "custom") + BUILTINS + ("wat",)))
    lines = ["[scenario]", f'kind = "{kind}"']
    if kind != "custom":
        for key in draw(st.lists(st.sampled_from(BUILTIN_PARAMS), unique=True)):
            lines.append(f"{key} = {draw(VALUES)}")
        return "\n".join(lines) + "\n"

    def pick(valid, perturbed):
        return draw(perturbed) if draw(st.integers(0, 4)) == 0 else valid

    dropped = draw(st.lists(st.sampled_from(sorted(CUSTOM_SECTIONS)), max_size=1))
    for section, (kinds, keys) in CUSTOM_SECTIONS.items():
        if section in dropped:
            continue
        lines.append(f"[{section}]")
        declared = CUSTOM_SCHEMA[section]
        if kinds:
            kind = pick(draw(st.sampled_from(kinds)), st.sampled_from(KINDS))
            lines.append(f'kind = "{kind}"')
            # the keys of the drawn kind; another kind's keys when it is perturbed
            declared = declared.get(kind, tuple(keys))
        for key, valid in keys.items():
            if declared is None or key in declared:
                lines.append(f"{key} = {pick(valid, VALUES)}")
    return "\n".join(lines) + "\n"


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    text=st.one_of(config_texts(), st.text(max_size=80)),
    argv=st.sampled_from(
        [("scenario",), ("omega", "--target", "whole"), ("attractor", "--budget", "0")]
    ),
)
def test_config_text_never_crashes(tmp_path, capsys, text, argv):
    # in process, an exception escaping main fails the test by itself
    path = tmp_path / "system.ini"
    path.write_text(text, encoding="utf-8")
    code = main([*argv, "--config", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err


WIDE_GRID = """
[scenario]
kind = "custom"

[space]
kind = "line_grid"
start = 0.0
stop = 1000000.0
count = 61

[family]
kind = "metric_chain"
eps0 = 4000000.0
depth = 3

[action]
kind = "halving_decay"

[filter]
kind = "integer_tails"
depth = 6
"""


# every config of the repository that loads: the README's, the benchmark's
# grid and this file's
VALID_CONFIGS = [
    *INI_BLOCKS,
    (README.parent / "tests" / "golden" / "grid-scale.ini").read_text(encoding="utf-8"),
    CUSTOM,
    WIDE_GRID,
    '[scenario]\nkind = "exp_decay"\nwindow = 3\n',
]
NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)


def declared_keys(text: str) -> dict:
    """The schema's keys per section of a config that loads, for its kinds."""
    parsed = _parse_config(text)
    kind = json.loads(parsed["scenario"]["kind"])
    if kind != "custom":
        return {"scenario": ("kind", *inspect.signature(BUILTIN_SCENARIOS[kind]).parameters)}
    out = {}
    for section, keys in CUSTOM_SCHEMA.items():
        if isinstance(keys, dict):
            skind = json.loads(parsed[section]["kind"]) if parsed.has_option(section, "kind") else None
            keys = ("kind", *keys[skind])
        out[section] = keys
    return out


def _parse_config(text):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    return cp


def test_valid_configs_hold_only_declared_keys():
    for text in VALID_CONFIGS:
        load_system(text)
        parsed, keys = _parse_config(text), declared_keys(text)
        for section in parsed.sections():
            assert keys[section] is None or set(parsed.options(section)) <= set(keys[section])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.sampled_from(VALID_CONFIGS), data=st.data())
def test_an_undeclared_key_or_section_is_a_config_error(tmp_path, capsys, text, data):
    keys = declared_keys(text)
    parsed = _parse_config(text)
    path = tmp_path / "system.ini"
    # one unknown key in each section whose key names are declared
    for section in parsed.sections():
        if keys[section] is None:  # [testsets] names are free
            continue
        key = data.draw(NAMES.filter(lambda k: k not in keys[section]))
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"), encoding="utf-8")
        assert main(["scenario", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: unknown key [{section}] {key}\n"
    section = data.draw(NAMES.filter(lambda s: s not in keys))
    path.write_text(text + f"\n[{section}]\nkind = 1\n", encoding="utf-8")
    assert main(["scenario", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: unknown section [{section}] for kind ")


def test_readme_names_every_declared_key():
    # the README's config reference names each key of the schema, inline as
    # `[section] key` or in its custom example
    text = README.read_text(encoding="utf-8")
    reference = text[text.index("## Config format") : text.index("## Library sketch")]
    example = _parse_config(README_CUSTOM)
    for section, keys in CUSTOM_SCHEMA.items():
        if keys is None:
            assert f"`[{section}]`" in reference
            continue
        names = {k for v in keys.values() for k in ("kind", *v)} if isinstance(keys, dict) else keys
        for key in names:
            assert f"`[{section}] {key}`" in reference or example.has_option(section, key), (section, key)


ARGV_FLAGS = {
    "--scenario": ("decay_grid", "composition", "exp_decay", "iterated_contractions", "wat"),
    "--config": ("small.ini", "wide.ini", "missing.ini", "."),
    "--max-level": ("0", "2", "-3", "1e6"),
    "--resolution": ("0", "1", "-1", "1000000"),
    "--cap": ("1", "3", "0", "1000000"),
    "--seed": ("0", "7", "-1", "1e12"),
    "--budget": ("0", "3", "-5", "1000000"),
    "--format": ("json", "csv", "xml"),
    "--out": ("report.txt", "."),
    "--mutate": ("prox-asymmetry", "none"),
    "--target": ("seed", "whole", "attractor", "bogus"),
}
ARGV_WORDS = ("decay_grid", "composition", "1e200", "-h", "--", "--bogus", "")


@st.composite
def argvs(draw):
    """A subcommand, then flags with values and stray words in any order."""
    words = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            words.append(draw(st.sampled_from(ARGV_WORDS)))
        else:
            flag = draw(st.sampled_from(sorted(ARGV_FLAGS)))
            words += [flag, draw(st.sampled_from(ARGV_FLAGS[flag]))]
    command = draw(st.sampled_from(("verify-axioms", "omega", "attractor", "scenario")))
    return [command, *words]


# a legitimate run takes up to half a second, so 50 examples keep this near 6 s
@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=argvs())
def test_argv_never_crashes(tmp_path, monkeypatch, capsys, argv):
    # every relative path, --out included, lands in tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "small.ini").write_text(CUSTOM, encoding="utf-8")
    (tmp_path / "wide.ini").write_text(WIDE_GRID, encoding="utf-8")
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_wide_grid_config_verifies_both_attractors(tmp_path, capsys):
    # an absolute triangle slack of 1e-12 used to reject this grid as a
    # metric space, and the run exited 2
    path = tmp_path / "system.ini"
    path.write_text(WIDE_GRID, encoding="utf-8")
    code, out = run(capsys, "attractor", "--config", str(path))
    assert code == 0
    assert json.loads(out)["kind"] == "both"


def test_verify_axioms_over_budget_reports_error_without_traceback(monkeypatch, capsys):
    # no battery run is known to overflow the cover-search budget, so a stub
    # that raises stands in for one
    def over_budget(**kwargs):
        raise CoverSearchBudgetExceeded("cover search exceeded 400000 nodes")

    monkeypatch.setattr("coverdyn.cli.grid_battery", over_budget)
    assert main(["verify-axioms", "--seed", "1", "--cap", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cover search exceeded 400000 nodes\n"


def test_verify_axioms_at_cap_8_fails_only_positive_chains(capsys):
    # at cap 8 the last ball of a positive chain needs more point stars than
    # the cap, so that row reports an unmet hypothesis; every other row passes
    code, out = run(capsys, "verify-axioms", "--seed", "1", "--cap", "8")
    assert code == 1
    failed = [r["name"] for r in json.loads(out)["results"] if r["verdict"] != "pass"]
    assert failed == ["nested_chain_positive_runs"]


def _bool_paths(node, path=""):
    if isinstance(node, bool):
        yield path
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _bool_paths(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _bool_paths(value, f"{path}[{i}]")


@pytest.mark.parametrize("name", ["composition", "decay_grid", "exp_decay", "iterated_contractions"])
def test_attractor_report_spells_every_verdict_as_a_row(capsys, name):
    # every verdict is a check row with a pass/fail verdict; the one bare
    # bool is the run's own summary
    code, out = run(capsys, "attractor", "--scenario", name)
    assert code == 0
    assert list(_bool_paths(json.loads(out))) == ["expectations_met"]


def test_scenario_and_config_together_is_usage_error(tmp_path, capsys):
    # the config used to be ignored in favour of the built-in scenario
    path = tmp_path / "system.ini"
    path.write_text(CUSTOM, encoding="utf-8")
    code = main(["scenario", "--scenario", "composition", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "argument --config: not allowed with argument --scenario" in err


@pytest.mark.parametrize("flag", ["--scenario", "--config"])
def test_scenario_name_conflicting_with_flag_is_usage_error(tmp_path, capsys, flag):
    # `scenario decay_grid --scenario composition` used to report composition
    path = tmp_path / "system.ini"
    path.write_text(CUSTOM, encoding="utf-8")
    value = "composition" if flag == "--scenario" else str(path)
    code = main(["scenario", "decay_grid", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "scenario name 'decay_grid' conflicts with --scenario/--config" in captured.err
    assert main(["scenario", "decay_grid", "--scenario", "decay_grid"]) == 0


@pytest.mark.parametrize("flag", ["--resolution", "--max-level"])
def test_verify_axioms_truncation_without_system_is_usage_error(capsys, flag):
    # the default battery runs at its own resolution and filter depth, so the
    # flag used to be echoed in the report and ignored
    code = main(["verify-axioms", flag, "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {flag}: needs --scenario or --config" in captured.err


OMEGA = ("omega", "--scenario", "decay_grid", "--target", "seed")


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("verify-axioms", "--budget", "32"),
            "argument --budget: verify-axioms does not use it",
            id="verify-axioms-budget",
        ),
        pytest.param(
            (*OMEGA, "--budget", "32"), "argument --budget: omega does not use it", id="omega-budget"
        ),
        pytest.param(
            ("scenario", "decay_grid", "--budget", "32"),
            "argument --budget: scenario does not use it",
            id="scenario-budget",
        ),
        pytest.param((*OMEGA, "--cap", "3"), "argument --cap: omega does not use it", id="omega-cap"),
        pytest.param(
            ("scenario", "decay_grid", "--cap", "3"),
            "argument --cap: scenario does not use it",
            id="scenario-cap",
        ),
        pytest.param((*OMEGA, "--seed", "0"), "argument --seed: omega does not use it", id="omega-seed"),
        pytest.param(
            ("scenario", "decay_grid", "--seed", "3"),
            "argument --seed: scenario does not use it",
            id="scenario-seed",
        ),
        pytest.param(
            ("verify-axioms", "--mutate", "prox-asymmetry", "--cap", "3"),
            "argument --cap: --mutate without --scenario or --config does not use it",
            id="mutate-cap",
        ),
    ],
)
def test_flag_the_command_does_not_read_is_usage_error(capsys, argv, message):
    # each flag used to be echoed in the report's config and then ignored
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


# one fast run of each subcommand
CONFIG_RUNS = {
    "verify-axioms": ("verify-axioms", "--mutate", "prox-asymmetry"),
    "omega": ("omega", "--scenario", "decay_grid", "--target", "seed"),
    "attractor": ("attractor", "--scenario", "decay_grid", "--budget", "1"),
    "scenario": ("scenario", "decay_grid"),
}


def test_report_config_records_each_parsed_option_once(capsys):
    # the report's config block is every option the parser declares, on
    # every subcommand, but the output options and the positional name: a
    # new flag that the report leaves out, or records twice, fails here
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(CONFIG_RUNS) == set(sub.choices)
    dests = {sub.dest} | {a.dest for p in sub.choices.values() for a in p._actions if a.dest != "help"}
    want = {"config" if d == "config_path" else d for d in dests - {"out", "mutate", "name"}}
    assert len(want) == 10
    for argv in CONFIG_RUNS.values():
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code in (0, 1), argv
        assert set(json.loads(out)["config"]) == want, argv
