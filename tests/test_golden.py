"""Golden reports: each CLI run must reproduce its recorded report byte for byte.

The files under tests/golden/ hold the stdout of `coverdyn <argv>`, run from
the repository root; a change that alters any verdict, witness or formatting
shows up here as a diff.
"""

import argparse
import dataclasses
import difflib
import json
import random
import re
from pathlib import Path

import pytest

from coverdyn.cli import _load_scenario, main
from coverdyn.scenarios import get_scenario
from coverdyn.space import iter_bits
from reference import reference_attracts, reference_star_mask

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
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
    # every other named test set of each built-in
    **{
        f"omega-{s}-{t}": ("omega", "--scenario", s, "--target", t)
        for s, targets in (
            ("composition", ("attractor", "pair", "seed")),
            ("decay_grid", ("low-ball", "whole")),
            ("exp_decay", ("seed", "small")),
            ("iterated_contractions", ("attractor", "pair", "seed")),
        )
        for t in targets
    },
    **{f"scenario-{s}": ("scenario", "--scenario", s) for s in SCENARIOS},
    # truncated bases: at level 5 the report's kind is global-only, which no
    # other case reaches, and level 2 fails two hypothesis rows of a nat_add basis
    **{
        f"attractor-decay_grid-max-level{k}": ("attractor", "--scenario", "decay_grid", "--max-level", str(k))
        for k in (5, 2)
    },
    # the argv of the benchmark's grid-scale workload at seed 1, on its
    # 201-point config; the path is relative to the repository root, so the
    # report's config field does not depend on the checkout
    "attractor-grid-scale-seed1": (
        "attractor", "--config", "tests/golden/grid-scale.ini", "--seed", "1",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
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


def test_grid_scale_golden_reads_the_benchmark_config():
    # perfbench/run.py writes this text as the grid-scale workload's config
    text = (GOLDEN / "grid-scale.ini").read_text(encoding="utf-8")
    assert f"GRID_CONFIG = {text!r}" in (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")


def test_every_named_test_set_has_an_omega_golden():
    for s in SCENARIOS:
        for t in get_scenario(s).testsets:
            assert any(argv == ("omega", "--scenario", s, "--target", t) for argv in CASES.values()), (s, t)


def _element(F, text):
    """The deepest-level sample element whose repr a report prints."""
    return next(el for el in F.level_samples[F.depth] if repr(el) == text)


@pytest.mark.parametrize("s", SCENARIOS)
def test_omega_witnesses_are_the_first_confirmed_pairs(s, capsys):
    """On every named test set and at every --max-level k, each witness of
    the `omega` report is the first (element, source) of the deepest level,
    in sample and then index order, whose image by `apply_fn` lies in the
    point's finest star, that star built from the members; every limit
    point has one."""
    base = get_scenario(s)
    fam = base.family
    pts = fam.space.points
    index = {p.pid: i for i, p in enumerate(pts)}
    checked = 0
    for k in range(base.filter_basis.depth + 1):
        F = dataclasses.replace(base.filter_basis, depth=k)
        for t, seed in sorted(base.testsets.items()):
            assert main(["omega", "--scenario", s, "--target", t, "--max-level", str(k)]) == 0
            block = json.loads(capsys.readouterr().out)["limit_set"]
            assert sorted(block["witnesses"]) == block["points"], (k, t)
            for pid, w in block["witnesses"].items():
                star = reference_star_mask(fam.coverings[-1], 1 << index[pid])
                first = next(
                    (el, src)
                    for el in F.level_samples[F.depth]
                    for src in iter_bits(seed)
                    if (star >> base.action.apply_fn(el, src)) & 1
                )
                assert first == (_element(F, w["element"]), index[w["source"]]), (k, t, pid)
                checked += 1
    assert checked


WITNESS = re.compile(
    r"^(?P<name>\S+): covering (?P<idx>\d+) never absorbed; "
    r"witness element (?P<el>.+) sends (?P<z>\S+) to (?P<img>\S+)$"
)


def test_failing_attracts_witnesses_in_the_goldens_are_confirmed(monkeypatch):
    """Each failing `attracts` row of an `attractor` golden names its first
    failing test set, the least covering at which no level's orbit lies in
    the candidate's star, and an (element, z) whose image by `apply_fn` is
    the named point, outside that star built from the members; no earlier
    deepest-level (element, z) leaves it."""
    monkeypatch.chdir(ROOT)
    checked = 0
    for name, argv in sorted(CASES.items()):
        if argv[0] != "attractor":
            continue
        payload = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        cfg = payload["config"]
        sc = _load_scenario(argparse.Namespace(
            scenario=cfg["scenario"], config_path=cfg["config"],
            max_level=cfg["max_level"], resolution=cfg["resolution"], cap=cfg["cap"],
        ))
        rng = random.Random(cfg["seed"])
        testsets = {**sc.testsets, **sc.random_bounded_testsets(rng, count=min(cfg["budget"], 50))}
        F, action, fam = sc.filter_basis, sc.action, sc.family
        index = {p.pid: i for i, p in enumerate(sc.space.points)}
        for verdict in (payload["equivalence"]["global"], payload["constructed_verdict"]):
            row = next(c for c in verdict["checks"] if c["name"] == "attracts")
            if row["verdict"] == "pass":
                continue
            m = WITNESS.match(row["witness"])
            assert m, (name, row)
            candidate = sc.space.mask_of(index[pid] for pid in verdict["candidate"])
            zname, idx = m["name"], int(m["idx"])
            Z = testsets[zname]
            el, z, img = _element(F, m["el"]), index[m["z"]], index[m["img"]]
            assert (Z >> z) & 1 and action.apply_fn(el, z) == img, (name, row)
            star = reference_star_mask(fam.coverings[idx], candidate)
            assert not (star >> img) & 1, (name, row)
            pairs = [(e, y) for e in F.level_samples[F.depth] for y in iter_bits(Z)]
            assert all(
                (star >> action.apply_fn(e, y)) & 1 for e, y in pairs[: pairs.index((el, z))]
            ), (name, row)
            # the test set and the covering are the first that fail
            for earlier in sorted(testsets):
                if earlier == zname:
                    break
                assert reference_attracts(candidate, testsets[earlier], F, action, fam)[1] == {}
            assert min(reference_attracts(candidate, Z, F, action, fam)[1]) == idx, (name, row)
            checked += 1
    assert checked == 3, checked
