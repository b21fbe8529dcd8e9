#!/usr/bin/env python3
"""Run the full attractor verification on every built-in scenario and print a
one-line verdict per system."""

import argparse
import json
import subprocess
import sys

SCENARIOS = ("decay_grid", "iterated_contractions", "composition", "exp_decay")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=12)
    args = ap.parse_args()

    worst = 0
    for name in SCENARIOS:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "coverdyn.cli",
                "attractor",
                "--scenario",
                name,
                "--seed",
                str(args.seed),
                "--budget",
                str(args.budget),
            ],
            capture_output=True,
            text=True,
        )
        worst = max(worst, proc.returncode)
        try:
            payload = json.loads(proc.stdout)
            kind = payload["kind"]
            met = payload["expectations_met"]
        except (json.JSONDecodeError, KeyError):
            kind, met = "?", False
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        print(f"{name:24s} kind={kind:22s} expectations_met={met} [{status}]")
        if kind == "?":
            lines = proc.stderr.strip().splitlines()
            print(f"    {lines[-1] if lines else 'no output on stderr'}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
