#!/usr/bin/env python3
"""Run the labeled proposition battery (grid chain plus tiny topologies) and
print each check with its verdict."""

import argparse
import sys
import time

from coverdyn.checks import grid_battery
from coverdyn.cli import _at_least
from coverdyn.space import CoverdynError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cap", type=_at_least(1), default=None)
    ap.add_argument("--chain-depth", type=int, default=6)
    args = ap.parse_args()

    t0 = time.monotonic()
    try:
        results = grid_battery(seed=args.seed, cap=args.cap, chain_depth=args.chain_depth)
    except CoverdynError as e:
        # same contract as `coverdyn verify-axioms`: one error line, exit 2
        sys.stderr.write(f"error: {e}\n")
        return 2
    elapsed = time.monotonic() - t0
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        failures += not r.passed
        wit = f"  ({r.witness})" if r.witness else ""
        print(f"{r.name:<{width}s}  {mark}{wit}")
    print(f"\n{len(results)} checks, {failures} failures, {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
