"""Line coverage of `src/coverdyn` under the test suite, from the stdlib alone.

Run as a script, from the repository root:

    python tests/line_coverage.py

It runs pytest over `tests/` under a line tracer restricted to
`src/coverdyn`, with a fixed hypothesis seed so that runs agree, and exits 1
when an executable line runs under no test and no `COVERAGE_ALLOW` entry
names it, or when an entry names no such line: every line of the package
runs under a test or is argued for here, and the list can only shrink.

The tracer keeps frames alive, so the test that counts cyclic garbage is
deselected; the plain suite still runs it. Tracing makes the suite about
three times slower, so this runs as its own CI step.
"""

import collections
import pathlib
import sys
import types
from typing import Callable

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coverdyn"

# (file, stripped line text, reason): a line of the package that runs under
# no test, and why. An entry allows one such line; a text on several of
# them takes one entry each.
COVERAGE_ALLOW = [
    ("cli.py", "sys.exit(main())", "the `python -m coverdyn.cli` entry; tests call main() in process"),
    ("attractor.py", 'else f"closure adds {action.space.pids(cl & ~cmask)[:4]}",',
     "the witness of `closed`: the candidate is a closure, so the row cannot fail"),
] + [
    ("checks.py", text, f"the witness of {law}: it runs only on a broken kernel")
    for law, text in (
        ("prox_zero_iff_in_closure", 'yield f"x={space.points[x].pid} A={space.pids(A)[:4]}"'),
        ("prox_to_closure_invariant", 'yield f"x={space.points[x].pid}"'),
        ("semi_prox_closure_invariant", 'yield f"A={space.pids(A)[:4]}"'),
        ("semi_prox_zero_iff_subset_closure", 'yield f"A={space.pids(A)[:4]} B={space.pids(B)[:4]}"'),
        ("convergent_sequence_closure_criterion", 'yield f"x={space.points[x].pid} A={space.pids(A)[:4]}"'),
        ("measure_monotone", 'f"A={space.pids(A)[:3]}"'),
        ("measure_union_bracket", 'yield f"A={space.pids(A)[:3]} B={space.pids(B)[:3]}"'),
        ("measure_closure_bracket", 'yield f"A={space.pids(A)[:3]}"'),
        ("measure_member_cover_bracket", 'yield f"A={space.pids(A)[:3]}"'),
        ("nested_chain_positive_runs", 'yield f"trial {t}: intersection misses the center"'),
        ("nested_chain_negative_controls",
         "yield f\"trial {t}: claimed 'nonempty compact intersection' under a starved cap\""),
    )
]


def executable_lines(path: pathlib.Path) -> set[int]:
    """The line numbers of `path` that its compiled code objects, nested
    ones included, attribute instructions to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # a module's code starts with an instruction on line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def collect(run: Callable[[], object], root: pathlib.Path = PACKAGE) -> dict[pathlib.Path, set[int]]:
    """Run `run()` under a line tracer and return, for each file under
    `root`, the line numbers that ran. The previous tracer is restored
    after."""
    root = str(root.resolve())
    inside: dict[str, bool] = {}
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = str(pathlib.Path(name).resolve()).startswith(root + "/")
            if inside[name]:
                ran.setdefault(name, set())
        return local if inside[name] else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)
    found: dict[pathlib.Path, set[int]] = {}
    for name, lines in ran.items():
        found.setdefault(pathlib.Path(name).resolve(), set()).update(lines)
    return found


def uncovered(ran: dict[pathlib.Path, set[int]], root: pathlib.Path = PACKAGE) -> list[tuple[str, int, str]]:
    """(file, line number, stripped text) of each executable line under
    `root` that `ran` does not hold."""
    out = []
    for path in sorted(root.glob("*.py")):
        text = path.read_text().splitlines()
        missed = executable_lines(path) - ran.get(path.resolve(), set())
        out += [(path.name, n, text[n - 1].strip()) for n in sorted(missed)]
    return out


def unallowed(missed: list[tuple[str, int, str]], allow=COVERAGE_ALLOW) -> list[str]:
    """One message per missed line that no entry of `allow` names, and per
    entry that names no missed line."""
    spare = collections.Counter((f, t) for f, t, _ in allow)
    problems = []
    for f, n, t in missed:
        if spare[f, t]:
            spare[f, t] -= 1
        else:
            problems.append(f"{f}:{n}: {t}")
    problems += [f"allowlist: {f}: {t!r} runs under a test or is gone" for (f, t), k in spare.items() for _ in range(k)]
    return problems


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    exit_code = []
    ran = collect(lambda: exit_code.append(pytest.main([
        "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--rootdir", str(ROOT),
        "--deselect", "tests/test_compactness.py::test_exact_cover_search_leaves_no_cyclic_garbage",
        str(ROOT / "tests"),
    ])))
    if exit_code != [0]:
        print(f"the traced suite failed: pytest exit code {exit_code}")
        return 1
    problems = unallowed(uncovered(ran))
    for p in problems:
        print(p)
    print(f"line coverage: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
