"""Golden reports: each CLI run must reproduce its recorded report byte for byte.

The files under tests/golden/ hold the stdout of `coverdyn <argv>`; a change
that alters any verdict, witness or formatting shows up here as a diff.
"""

import difflib
from pathlib import Path

import pytest

from coverdyn.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = ("composition", "decay_grid", "exp_decay", "iterated_contractions")

CASES = {
    **{f"attractor-{s}": ("attractor", "--scenario", s, "--seed", "0") for s in SCENARIOS},
    # the argv of the benchmark's attractor-builtins workload at seed 1
    **{f"attractor-{s}-seed1": ("attractor", "--scenario", s, "--seed", "1") for s in SCENARIOS},
    **{f"verify-axioms-{s}": ("verify-axioms", "--scenario", s, "--seed", "0") for s in SCENARIOS},
    "verify-axioms": ("verify-axioms", "--seed", "0"),
    "verify-axioms-prox-asymmetry": ("verify-axioms", "--seed", "0", "--mutate", "prox-asymmetry"),
    "verify-axioms-seed1-cap12": ("verify-axioms", "--seed", "1", "--cap", "12"),
    **{
        f"omega-{s}": ("omega", "--scenario", s, "--target", t)
        for s, t in (
            ("composition", "whole"),
            ("decay_grid", "seed"),
            ("exp_decay", "orbit-star"),
            ("iterated_contractions", "whole"),
        )
    },
    **{f"scenario-{s}": ("scenario", "--scenario", s) for s in SCENARIOS},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    main(list(CASES[name]))
    got = capsys.readouterr().out
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    if got != want:
        diff = difflib.unified_diff(
            want.splitlines(keepends=True),
            got.splitlines(keepends=True),
            fromfile=f"golden/{name}.json",
            tofile="current",
        )
        pytest.fail("report differs from golden:\n" + "".join(diff))
