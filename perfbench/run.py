"""coverdyn benchmark: one closed-loop client driving the CLI in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. One op is one CLI report produced by
``coverdyn.cli.main(argv)`` with stdout captured; scenarios are rebuilt on
every call, so nothing is cached from one op to the next. With ``--trace 0``
the last line of stdout carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced loop. Lines before it print every
metric with its unit and base, the correctness gate, and run metadata.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_THREADS = "1"
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

BUILTINS = ("iterated_contractions", "composition", "exp_decay", "decay_grid")
# 201 points: set-up (chain certification and the admissibility matrices)
# is most of the op, a superlinear cost the 101-point built-ins hide. 301
# points would take about 10 s per op and 30 s of set-up samples per run,
# which leaves one timed op per run and too little time for the run count.
GRID_CONFIG = '[scenario]\nkind = "decay_grid"\ncount = 201\n'

END_TO_END = {
    "ops_per_s": "op/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
ERROR_RATE = ("error_rate", "ratio")
RATIOS = {
    "dynamics.image_cache.hit_ratio": "ratio",
    "compactness.coverable_within.per_measure": "ratio",
    "trace.op_s.p50.overhead": "ratio",
}

# Set-up is sampled at least this often and until this much time is spent.
MIN_SETUPS = 3
SETUP_BUDGET_S = 3.0
MAX_SETUPS = 15
TAIL_BEYOND = 10

# On a shared host the single-thread speed can drift by about 25 % within
# seconds (measured on a 2-vCPU Intel Xeon at 2.1 GHz), which wall time alone
# cannot tell apart from a change in the program. So a fixed pure-Python
# kernel samples the speed right before and after each op or set-up sample,
# and every PROBE_S seconds on average during it (from a SIGALRM handler).
# Times are reported in reference seconds:
# (wall seconds - probe time) * CAL_REF_S / (median kernel time over the work).
# CAL_REF_S is about the kernel's fastest time on that machine (Python 3.11).
CAL_ITERS = 5_000
CAL_REF_S = 0.003
PROBE_S = 0.1


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple  # one round: ((label, argv), ...)
    setup: Callable[[], dict]  # builds the systems; returns label -> expected kind


@dataclasses.dataclass(frozen=True)
class OpResult:
    label: str
    argv: tuple
    wall: float
    seconds: float  # reference seconds
    code: Optional[int]
    text: str
    error: Optional[str]


def _builtin_setup() -> dict:
    from coverdyn.scenarios import get_scenario

    return {name: get_scenario(name).expected.kind for name in BUILTINS}


def _battery_setup() -> dict:
    from coverdyn import covering, space

    covering.metric_chain_family(space.line_grid(0.0, 1.0, 101), 2.0, 6)
    for n in (1, 2, 3):
        for opens in space.enumerate_topologies(n):
            pts = tuple(space.Point(pid=f"p{i}", index=i) for i in range(n))
            covering.finite_all_coverings_family(space.Space(points=pts, opens=opens))
    return {"battery": None}


def _grid_setup() -> dict:
    from coverdyn.scenarios import load_system

    return {"grid": load_system(GRID_CONFIG).expected.kind}


def make_workload(name: str, seed: int) -> Workload:
    k = str(seed)
    if name == "attractor-builtins":
        ops = tuple((s, ("attractor", "--scenario", s, "--seed", k)) for s in BUILTINS)
        return Workload(name, ops, _builtin_setup)
    if name == "axiom-battery":
        return Workload(name, (("battery", ("verify-axioms", "--seed", k)),), _battery_setup)
    if name == "grid-scale":
        path = OUT / "grid-scale.ini"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(GRID_CONFIG, encoding="utf-8")
        return Workload(name, (("grid", ("attractor", "--config", str(path), "--seed", k)),), _grid_setup)
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("attractor-builtins", "axiom-battery", "grid-scale")


_KERNEL_MASKS = tuple(random.Random(i).getrandbits(301) for i in range(512))


def _kernel() -> int:
    """Wide-int bitmask and small frozenset work, like coverdyn's own kernel.

    Of the kernels tried, this one tracked op times best under a shared host's
    drift (quartile spread of normalized op times 0.05-0.07, against 0.15-0.24
    raw and 0.10-0.12 for a small-dict kernel).
    """
    out = 0
    seen = set()
    for i in range(CAL_ITERS):
        both = _KERNEL_MASKS[i & 511] & _KERNEL_MASKS[(i * 7) & 511]
        if both:
            out |= both
        seen.add(frozenset((i & 63, (i >> 3) & 63)))
    return out.bit_count() + len(seen)


class Speed:
    """Converts wall time to reference seconds (see CAL_REF_S)."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self._probe_s = 0.0
        self._active = False
        self._rng = random.Random(0)
        signal.signal(signal.SIGALRM, self._probe)
        self._sample()

    def _sample(self) -> float:
        t0 = time.perf_counter()
        _kernel()
        dt = time.perf_counter() - t0
        self.kernel_s.append(dt)
        return dt

    def _arm(self) -> None:
        # Jittered, so the probes cannot lock onto the phase of periodic load
        # on the host (such as 100 ms scheduler quota periods).
        signal.setitimer(signal.ITIMER_REAL, PROBE_S * self._rng.uniform(0.5, 1.5))

    def _probe(self, signum, frame) -> None:
        if self._active:
            self._probe_s += self._sample()
            self._arm()

    def timed(self, fn: Callable[[], object]) -> tuple[object, float, float]:
        """Run fn; return (its result, wall seconds, reference seconds)."""
        first = len(self.kernel_s) - 1
        probe0 = self._probe_s
        self._active = True
        self._arm()
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        work = wall - (self._probe_s - probe0)
        self._sample()
        kernel = statistics.median(self.kernel_s[first:])
        return out, wall, work * CAL_REF_S / kernel


def run_op(cli, speed: Speed, label: str, argv: tuple) -> OpResult:
    buf = io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(buf):
                return cli.main(list(argv)), None
        except Exception as e:  # an op that raises is a failed op, not a failed run
            return None, f"{type(e).__name__}: {e}"

    (code, error), wall, ref = speed.timed(call)
    return OpResult(label, argv, wall, ref, code, buf.getvalue(), error)


class Gate:
    """Per-op correctness: exit code, expectations, verdicts, repeatable bytes."""

    def __init__(self, expected_kinds: dict) -> None:
        self.expected_kinds = expected_kinds
        self.first: dict[tuple, str] = {}
        self.reports: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def reason(self, r: OpResult) -> Optional[str]:
        if r.error is not None:
            return f"raised {r.error}"
        if r.code != 0:
            return f"exit code {r.code}"
        try:
            report = json.loads(r.text)
        except ValueError:
            return "report is not JSON"
        if report.get("command") == "attractor":
            if report.get("expectations_met") is not True:
                return "expectations_met is not true"
            if report.get("kind") != self.expected_kinds.get(r.label):
                return f"kind {report.get('kind')!r}, scenario expects {self.expected_kinds.get(r.label)!r}"
        else:
            results = report.get("results") or []
            bad = [x.get("name") for x in results if x.get("verdict") != "pass"]
            if not results or bad:
                return f"{len(bad)} of {len(results)} results not pass, first {bad[:1]}"
        first = self.first.setdefault(r.argv, r.text)
        if first != r.text:
            return "report bytes differ from the first run of the same argv"
        self.reports.setdefault(r.label, report)
        return None

    def check(self, r: OpResult) -> bool:
        self.attempted += 1
        why = self.reason(r)
        if why is not None:
            self.failed += 1
            self.failures.append(f"{' '.join(r.argv)}: {why}")
        return why is None

    def digest(self) -> str:
        h = hashlib.sha256()
        for label in sorted(self.reports):
            rep = self.reports[label]
            pairs = sorted((x["name"], x["verdict"]) for x in rep.get("results", []))
            h.update(json.dumps([label, rep.get("kind", ""), pairs]).encode())
        return h.hexdigest()


def time_setup(speed: Speed, setup: Callable[[], dict], min_samples: int) -> tuple[list[float], list[float], dict]:
    """Set-up samples as (reference seconds, wall seconds, expected kinds)."""
    samples: list[float] = []
    walls: list[float] = []
    kinds: dict = {}
    while len(samples) < min_samples or (
        sum(walls) < SETUP_BUDGET_S and len(samples) < MAX_SETUPS
    ):
        kinds, wall, ref = speed.timed(setup)
        samples.append(ref)
        walls.append(wall)
    return samples, walls, kinds


def timed_loop(cli, speed: Speed, wl: Workload, gate: Gate, seconds: float, tracer=None) -> tuple[list[OpResult], int, float]:
    """Closed loop over whole rounds until `seconds` of wall time have passed
    (or a traced loop holds MAX_SPANS spans); the round in progress finishes,
    so every run holds whole rounds."""
    ops: list[OpResult] = []
    correct = 0
    t0 = time.perf_counter()
    while True:
        for label, argv in wl.ops:
            if tracer is not None:
                tracer.begin_op(len(ops))
            r = run_op(cli, speed, label, argv)
            if tracer is not None:
                tracer.end_op()
            ops.append(r)
            correct += gate.check(r)
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds or (tracer is not None and tracer.full):
            return ops, correct, elapsed


def tail(times: list[float]) -> tuple[float, float]:
    """Highest of p99.9, p99 and p90 with ten samples beyond it, as (value,
    percentile); below 100 samples none has, and the maximum is reported as
    percentile 100. (A lower percentile would fall to the median at 20
    samples, so the metric would jump as the sample count changed.)"""
    s = sorted(times)
    n = len(s)
    for pct in (99.9, 99.0, 90.0):
        beyond = int(n * (1 - pct / 100))
        if beyond >= TAIL_BEYOND:
            return s[n - beyond - 1], pct
    return s[-1], 100.0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError) as e:
        return f"unknown ({type(e).__name__})"
    return out.stdout.strip() or "unknown"


def metadata(wl: Workload, seed: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "load": "closed loop, 1 client, 1 thread",
    }


def emit(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<48} {value:<14.6g} {unit:<6} {note}".rstrip())


def measure(wl: Workload, seed: int, seconds: float, trace: bool, warmup: bool = True, min_setups: int = MIN_SETUPS) -> dict:
    """One run of one workload; prints every metric and returns the result."""
    cli = importlib.import_module("coverdyn.cli")
    meta = metadata(wl, seed, trace)
    speed = Speed()
    warm = run_op(cli, speed, *wl.ops[0]) if warmup else None
    setups, setup_walls, kinds = time_setup(speed, wl.setup, min_setups if not trace else 1)
    gate = Gate(kinds)
    if warm is not None:
        gate.check(warm)

    control = run_op(cli, speed, "control", ("verify-axioms", "--seed", str(seed), "--mutate", "prox-asymmetry"))
    control_why = Gate({}).reason(control)
    meta["control"] = f"prox-asymmetry {'failed the gate: ' + control_why if control_why else 'PASSED the gate'}"

    ops, correct, elapsed = timed_loop(cli, speed, wl, gate, seconds)
    times = [r.seconds for r in ops]
    p50 = statistics.median(times)
    nested = True
    print(f"# workload {wl.name}  seed {seed}  trace {int(trace)}  (times in reference seconds, wall in notes)")
    if not trace:
        tail_v, tail_p = tail(times)
        metrics = {
            "ops_per_s": correct / sum(times),
            "op_s.p50": p50,
            "op_s.tail": tail_v,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {
            "ops_per_s": f"({correct} correct reports, {len(wl.ops)} op/round; wall {correct / elapsed:.6g} op/s over a {elapsed:.3f} s loop)",
            "op_s.p50": f"(n={len(times)}; wall {statistics.median(r.wall for r in ops):.6g} s)",
            "op_s.tail": f"(p{tail_p:.4g}, n={len(times)}, {sum(t > tail_v for t in times)} beyond; wall max {max(r.wall for r in ops):.6g} s)",
            "setup_s": f"(median of {len(setups)}; wall {statistics.median(setup_walls):.6g} s)",
            "peak_rss_mb": "(ru_maxrss of this process)",
        }
        units = dict(END_TO_END)
    else:
        from spans import LAYERS, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            tops, _, _ = timed_loop(cli, speed, wl, gate, seconds, tracer)
        finally:
            tracer.uninstall()
        ttimes = [r.seconds for r in tops]
        s = tracer.summary([r.seconds / r.wall for r in tops])
        nested = s["nested"]
        calls = s["total_calls"]
        ii = calls["dynamics.Action.image_indices"]
        measures = calls["compactness.star_measure"] + calls["compactness.member_measure"]
        overhead = statistics.median(ttimes) / p50 - 1.0
        metrics, units, notes = {}, {}, {}
        for name in LAYERS:
            metrics[f"{name}.self_s"], units[f"{name}.self_s"] = s["self_s"][name], "s"
            metrics[f"{name}.calls"], units[f"{name}.calls"] = s["calls"][name], "count"
        metrics["dynamics.image_cache.hit_ratio"] = 1.0 - tracer.image_cache_misses / ii if ii else 0.0
        notes["dynamics.image_cache.hit_ratio"] = f"(1 - {tracer.image_cache_misses} cached elements / {ii} image_indices calls)"
        metrics["compactness.coverable_within.per_measure"] = calls["compactness.coverable_within"] / measures if measures else 0.0
        notes["compactness.coverable_within.per_measure"] = (
            f"({calls['compactness.coverable_within']} coverable_within calls / {measures} star_measure + member_measure calls)"
        )
        metrics["trace.op_s.p50.overhead"] = overhead
        notes["trace.op_s.p50.overhead"] = f"(traced p50 {statistics.median(ttimes):.6g} s over untraced p50 {p50:.6g} s, minus 1)"
        units.update(RATIOS)
        meta["trace_overhead_op_s_p50"] = overhead
        meta["traced_ops"] = len(ttimes)
        meta["spans"] = s["spans"]
        meta["nesting"] = (
            f"{'ok' if nested else 'BROKEN'}: per op, layer self times sum to the cli.main span "
            f"(max error {s['nesting_error_s']:.3g} s); mean traced op {statistics.mean(s['op_s']):.6g} s, "
            f"sum of self_s {sum(s['self_s'].values()):.6g} s"
        )
        meta["traced_wall_s"] = [r.wall for r in tops]
        path = OUT / f"spans-{wl.name}.csv.gz"
        tracer.write(path)
        meta["spans_file"] = str(path.relative_to(ROOT))

    error_rate = gate.failed / gate.attempted
    metrics_out = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    if trace:
        metrics_out[ERROR_RATE[0]] = {"value": error_rate, "unit": ERROR_RATE[1]}
    for n, m in metrics_out.items():
        emit(n, m["value"], m["unit"], notes.get(n, ""))
    if not trace:
        emit(ERROR_RATE[0], error_rate, ERROR_RATE[1], f"({gate.failed} failed of {gate.attempted} attempted)")
    meta["verdict_digest"] = "sha256:" + gate.digest()
    meta["kernel_s"] = {"reference": CAL_REF_S, "median": statistics.median(speed.kernel_s), "samples": len(speed.kernel_s)}
    meta["failures"] = gate.failures[:5]
    print("meta " + json.dumps(meta, sort_keys=True))
    return {
        "correct": gate.failed == 0 and control_why is not None and nested,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics_out,
    }


def smoke() -> int:
    """One op per workload, then one traced op; every metric must print with its unit."""
    expected = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"]: m["unit"] for m in expected["end_to_end"] + expected["per_layer"]}
    want[ERROR_RATE[0]] = ERROR_RATE[1]
    buf = io.StringIO()
    ok = True
    with contextlib.redirect_stdout(buf):
        for name in WORKLOADS:
            wl = make_workload(name, 0)
            wl = dataclasses.replace(wl, ops=wl.ops[:1])
            ok &= measure(wl, 0, 0.0, trace=False, warmup=False, min_setups=1)["correct"]
        wl = make_workload("attractor-builtins", 0)
        ok &= measure(dataclasses.replace(wl, ops=wl.ops[:1]), 0, 0.0, trace=True, warmup=False)["correct"]
    text = buf.getvalue()
    print(text, end="")
    printed = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "meta ")):
            printed.setdefault(parts[0], set()).add(parts[2])
    missing = sorted(n for n, u in want.items() if u not in printed.get(n, ()))
    for n in missing:
        print(f"smoke: {n} not printed with unit {want[n]}")
    print(f"smoke: {'ok' if ok and not missing else 'FAILED'} ({len(want)} metrics checked)")
    return 0 if ok and not missing else 1


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one op per workload plus one traced op")
    ns = ap.parse_args(argv)
    if not ns.smoke and ns.workload is None:
        ap.error("--workload is required unless --smoke is given")

    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "coverdyn" / "cli.py").is_file():
        sys.stderr.write(f"error: no coverdyn sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import coverdyn

    if Path(coverdyn.__file__).resolve().parent != ROOT / "src" / "coverdyn":
        sys.stderr.write(f"error: imported coverdyn from {coverdyn.__file__}, not this checkout\n")
        return 2

    if ns.smoke:
        return smoke()
    result = measure(make_workload(ns.workload, ns.seed), ns.seed, ns.seconds, bool(ns.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
