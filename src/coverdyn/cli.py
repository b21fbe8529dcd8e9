"""Config-driven command-line frontend emitting deterministic structured reports.

Subcommands: `verify-axioms` (the proposition battery), `omega` (limit set of
a named test set), `attractor` (full verification against the scenario's
expectations), and `scenario` (summary of a built-in system). Exit codes:
0 expectations met, 1 property violation, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import dataclass, replace
from typing import Optional

from .attractor import (
    check_equivalence,
    check_uniqueness,
    construct_candidate,
    verify_global,
)
from .checks import (
    BATTERY_DEPTH,
    battery_family,
    boundedness_suite,
    closure_criteria_suite,
    grid_battery,
    measure_suite,
    proximity_suite,
)
from .dynamics import omega_limit
from .proximity import CoverCollection, prox
from .scenarios import (
    BUILTIN_SCENARIOS,
    Scenario,
    SchemaError,
    get_scenario,
    load_system,
)
from .space import CoverdynError


@dataclass(frozen=True)
class RunConfig:
    command: str
    scenario: Optional[str]
    config_path: Optional[str]
    target: Optional[str]
    max_level: Optional[int]
    resolution: Optional[int]
    cap: Optional[int]
    format: str
    out: Optional[str]
    mutate: Optional[str]
    # the defaults `main` reads as class attributes when no flag sets them
    seed: int = 0
    budget: int = 32

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "scenario": self.scenario,
            "config": self.config_path,
            "target": self.target,
            "max_level": self.max_level,
            "resolution": self.resolution,
            "cap": self.cap,
            "seed": self.seed,
            "budget": self.budget,
            "format": self.format,
        }


def _load_scenario(rc: RunConfig) -> Scenario:
    if rc.scenario:
        sc = get_scenario(rc.scenario)
    elif rc.config_path:
        with open(rc.config_path, "r", encoding="utf-8") as fh:
            sc = load_system(fh.read())
    else:
        raise SchemaError("either --scenario or --config is required")
    if rc.max_level is not None and rc.max_level < sc.filter_basis.depth:
        sc = replace(sc, filter_basis=replace(sc.filter_basis, depth=rc.max_level))
    if rc.resolution is not None and rc.resolution < sc.family.size - 1:
        sc = replace(sc, family=sc.family.prefix(rc.resolution))
    return sc


def _decorate(rows: list[dict], budget: int, resolution: int) -> list[dict]:
    out = []
    for r in rows:
        r = dict(r)
        r.setdefault("budget", budget)
        r.setdefault("resolution", resolution)
        out.append(r)
    return out


def _emit(rc: RunConfig, payload: dict) -> str:
    if rc.format == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["name", "verdict", "witness", "budget", "resolution"])
    for row in payload.get("results", []):
        w.writerow(
            [
                row.get("name", ""),
                row.get("verdict", ""),
                row.get("witness", ""),
                row.get("budget", ""),
                row.get("resolution", ""),
            ]
        )
    return buf.getvalue()


def _write(rc: RunConfig, text: str) -> None:
    if rc.out:
        with open(rc.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _broken_prox(x, y, family):
    # deliberately asymmetric: drops the finest level on ordered pairs
    v = prox(x, y, family)
    if x < y:
        return CoverCollection(family, v.mask >> 1)
    return v


def cmd_verify_axioms(rc: RunConfig) -> int:
    if rc.scenario or rc.config_path:
        sc = _load_scenario(rc)
        rng = random.Random(rc.seed)
        results = []
        results += proximity_suite(
            sc.family, prox_fn=_broken_prox if rc.mutate == "prox-asymmetry" else None
        )
        results += closure_criteria_suite(sc.family, rng=rng, trials=40)
        results += boundedness_suite(sc.family, rng=rng, trials=40)
        results += measure_suite(sc.family, cap=rc.cap or sc.declared.cap, rng=rng, trials=60)
        resolution = sc.family.depth
    else:
        if rc.mutate == "prox-asymmetry":
            results = proximity_suite(battery_family(), prox_fn=_broken_prox)
        else:
            results = grid_battery(seed=rc.seed, cap=rc.cap)
        resolution = BATTERY_DEPTH
    rows = _decorate([r.to_dict() for r in results], rc.budget, resolution)
    payload = {"command": "verify-axioms", "config": rc.to_dict(), "results": rows}
    _write(rc, _emit(rc, payload))
    return 0 if all(r["verdict"] == "pass" for r in rows) else 1


def cmd_omega(rc: RunConfig) -> int:
    sc = _load_scenario(rc)
    if rc.target not in sc.testsets:
        raise SchemaError(
            f"unknown test set {rc.target!r}; known: {sorted(sc.testsets)}"
        )
    rep = omega_limit(sc.testsets[rc.target], sc.filter_basis, sc.action, sc.family)
    payload = {
        "command": "omega",
        "config": rc.to_dict(),
        "target": rc.target,
        "limit_set": rep.to_dict(),
        "results": _decorate(
            [
                {
                    "name": f"omega[{rc.target}]",
                    "verdict": "computed",
                    "witness": ",".join(rep.pids()[:8]),
                }
            ],
            rc.budget,
            rep.resolution,
        ),
    }
    _write(rc, _emit(rc, payload))
    return 0


def cmd_attractor(rc: RunConfig) -> int:
    sc = _load_scenario(rc)
    rng = random.Random(rc.seed)
    testsets = dict(sc.testsets)
    testsets.update(sc.random_bounded_testsets(rng, count=min(rc.budget, 50)))
    sc = replace(sc, testsets=testsets)
    if rc.cap is not None:
        sc = replace(sc, declared=replace(sc.declared, cap=rc.cap))

    report = check_equivalence(sc)
    candidate = sc.attractor_points()
    constructed = construct_candidate(
        testsets, sc.filter_basis, sc.action, sc.family
    )
    built_verdict = verify_global(
        constructed, testsets, sc.filter_basis, sc.action, sc.family, sc.declared.cap
    )
    uniqueness = None
    if report.global_verdict.all_passed and built_verdict.all_passed:
        uniqueness = check_uniqueness(
            candidate, constructed, {"attractor": candidate}, sc.family
        )

    hyp_match = all(
        report.hypotheses.passed(name) == expect
        for name, expect in sc.declared.hypothesis_expect.items()
    )
    expectations_met = (
        report.kind == sc.expected.kind
        and report.links.passed("forward")
        and hyp_match
        and (uniqueness is None or uniqueness.all_passed)
    )

    rows = [
        {"name": f"{prefix}.{c.name}", "verdict": "pass" if c.passed else "fail", "witness": c.witness or ""}
        for prefix, checklist in (
            ("global", report.global_verdict),
            ("uniform", report.uniform_verdict),
            ("taxonomy", report.taxonomy),
            ("hypothesis", report.hypotheses),
        )
        for c in checklist.checks
    ]
    rows.append(
        {
            "name": "expectations",
            "verdict": "pass" if expectations_met else "fail",
            "witness": f"kind={report.kind} expected={sc.expected.kind}",
        }
    )
    payload = {
        "command": "attractor",
        "config": rc.to_dict(),
        "kind": report.kind,
        "expected_kind": sc.expected.kind,
        "equivalence": report.to_dict(),
        "constructed_candidate": sc.space.pids(constructed),
        "constructed_verdict": built_verdict.to_dict(),
        "uniqueness": uniqueness.to_dict() if uniqueness else None,
        "expectations_met": expectations_met,
        "results": _decorate(rows, rc.budget, sc.family.depth),
    }
    _write(rc, _emit(rc, payload))
    return 0 if expectations_met else 1


def cmd_scenario(rc: RunConfig) -> int:
    sc = _load_scenario(rc)
    payload = {
        "command": "scenario",
        "config": rc.to_dict(),
        "name": sc.name,
        "points": sc.space.n,
        "coverings": [len(c.members) for c in sc.family.coverings],
        "filter_depth": sc.filter_basis.depth,
        "testsets": {k: sc.space.pids(v)[:10] for k, v in sorted(sc.testsets.items())},
        "expected": {
            "attractor": list(sc.expected.attractor),
            "kind": sc.expected.kind,
        },
        "results": _decorate(
            [{"name": "scenario", "verdict": "loaded", "witness": sc.name}],
            rc.budget,
            sc.family.depth,
        ),
    }
    _write(rc, _emit(rc, payload))
    return 0


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coverdyn",
        description="covering-uniformity dynamics: axiom suites, limit sets, attractors",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        system = p.add_mutually_exclusive_group()
        system.add_argument("--scenario", choices=sorted(BUILTIN_SCENARIOS), help="built-in system")
        system.add_argument("--config", dest="config_path", help="system config file")
        p.add_argument(
            "--max-level", type=_at_least(0), dest="max_level", help="filter truncation"
        )
        p.add_argument("--resolution", type=_at_least(0), help="covering index truncation")
        p.add_argument("--cap", type=_at_least(1), help="measure cardinality cap")
        p.add_argument("--seed", type=int, help="seed for randomized test sets (default 0)")
        p.add_argument(
            "--budget", type=_at_least(0), help="random test sets for attractor (default 32, at most 50)"
        )
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write the report to a file instead of stdout")

    p = sub.add_parser("verify-axioms", help="run the labeled proposition battery")
    common(p)
    p.add_argument(
        "--mutate",
        choices=("prox-asymmetry",),
        help="negative-control hook: break an internal law on purpose",
    )

    p = sub.add_parser("omega", help="limit set of a named test set")
    common(p)
    p.add_argument("--target", required=True, help="test set name")

    p = sub.add_parser("attractor", help="construct and verify attractors")
    common(p)

    p = sub.add_parser("scenario", help="describe a system")
    common(p)
    p.add_argument("name", nargs="?", help="built-in scenario name")
    return ap


def _reject_ignored_flags(ap: argparse.ArgumentParser, ns: argparse.Namespace) -> None:
    """Usage error for a flag that the command would accept and then ignore."""
    name = getattr(ns, "name", None)
    if name and (ns.config_path or ns.scenario not in (None, name)):
        ap.error(f"scenario name {name!r} conflicts with --scenario/--config")
    system = ns.scenario or ns.config_path
    if ns.command == "verify-axioms" and not system:
        for flag, value in (("--max-level", ns.max_level), ("--resolution", ns.resolution)):
            if value is not None:
                ap.error(f"argument {flag}: needs --scenario or --config")
    if ns.budget is not None and ns.command != "attractor":
        ap.error(f"argument --budget: {ns.command} does not use it")
    for flag, value in (("--cap", ns.cap), ("--seed", ns.seed)):
        if value is not None and ns.command in ("omega", "scenario"):
            ap.error(f"argument {flag}: {ns.command} does not use it")
    if ns.cap is not None and getattr(ns, "mutate", None) and not system:
        ap.error("argument --cap: --mutate without --scenario or --config does not use it")


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
        _reject_ignored_flags(ap, ns)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    rc = RunConfig(
        command=ns.command,
        scenario=ns.scenario or getattr(ns, "name", None),
        config_path=ns.config_path,
        target=getattr(ns, "target", None),
        max_level=ns.max_level,
        resolution=ns.resolution,
        cap=ns.cap,
        seed=RunConfig.seed if ns.seed is None else ns.seed,
        budget=RunConfig.budget if ns.budget is None else ns.budget,
        format=ns.format,
        out=ns.out,
        mutate=getattr(ns, "mutate", None),
    )
    handlers = {
        "verify-axioms": cmd_verify_axioms,
        "omega": cmd_omega,
        "attractor": cmd_attractor,
        "scenario": cmd_scenario,
    }
    try:
        return handlers[rc.command](rc)
    except (CoverdynError, OSError, UnicodeDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
