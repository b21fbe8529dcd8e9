import json

import pytest

from coverdyn.cli import main


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
