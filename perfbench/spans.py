"""Span tracer that wraps coverdyn functions from outside the package.

Each traced function is rebound in every ``coverdyn.*`` module namespace that
holds it (and on its class, for methods), so calls between modules inside the
package are caught too. Spans are kept in memory as parallel arrays (layer,
start, end, parent span, op id) and written out after the traced loop.
Nothing under ``src/`` is changed; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Every layer boundary the benchmark records, as ``<module>.<function>`` or
# ``<module>.<Class>.<method>``. Each yields ``<name>.self_s`` and
# ``<name>.calls`` per op. `cli.main` is the root of every op, so the self
# times of all layers sum to the traced op time.
LAYERS = (
    "cli.main",
    "space.line_grid",
    "covering.double_refines",
    "covering.refines",
    "covering.verify_admissible",
    "covering.chain_family",
    "covering.metric_chain_family",
    "covering.enumerate_open_coverings",
    "funcspace.pointwise_chain",
    "scenarios.get_scenario",
    "scenarios.load_system",
    "proximity.prox",
    "proximity.prox_to_set",
    "proximity.semi_prox",
    "proximity.CoverCollection.finite",
    "proximity.coarsen",
    "compactness.star_measure",
    "compactness.coverable_within",
    "compactness.member_measure",
    "compactness.is_bounded",
    "dynamics.attracts",
    "dynamics.orbit_mask",
    "dynamics.Action.image_mask",
    "dynamics.Action.image_indices",
    "dynamics.omega_limit",
    "dynamics.prolongational_limit",
    "dynamics.check_dissipativity",
    "dynamics.check_hypotheses",
    "attractor.verify_global",
    "attractor.verify_uniform",
    "attractor.construct_candidate",
    "attractor.check_equivalence",
    "checks.proximity_suite",
    "checks.closure_criteria_suite",
    "checks.boundedness_suite",
    "checks.measure_suite",
    "checks.nested_chain_suite",
    "checks.tiny_topology_battery",
)
# A traced loop stops after the round in which it passes this many spans
# (about 30 MB in memory, 15 MB written); an attractor-builtins op makes
# about 145 000 spans and an axiom-battery op about 380 000.
MAX_SPANS = 1_000_000
IMAGE_INDICES = LAYERS.index("dynamics.Action.image_indices")
ROOT_LAYER = LAYERS.index("cli.main")


class Tracer:
    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._undo: list[tuple[object, str, object]] = []
        # Action instances seen by image_indices during the current op, and
        # the image-cache entries they held at op end (cache misses).
        self._actions: dict[int, object] = {}
        self.image_cache_misses = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: int, fn):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{LAYERS[layer]} is a generator; its span would end early")
        spans, stack, clock = self, self._stack, time.perf_counter
        actions = self._actions if layer == IMAGE_INDICES else None

        def traced(*args, **kwargs):
            if actions is not None:
                actions[id(args[0])] = args[0]
            i = len(spans.start)
            spans.layer.append(layer)
            spans.parent.append(stack[-1])
            spans.op.append(spans._op_id)
            spans.start.append(0.0)
            spans.end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                spans.start[i] = t0
                spans.end[i] = t1
                stack.pop()

        return functools.update_wrapper(traced, fn)

    @property
    def full(self) -> bool:
        return len(self.start) >= MAX_SPANS

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id

    def end_op(self) -> None:
        self.image_cache_misses += sum(
            len(a.__dict__.get("_image_cache", ())) for a in self._actions.values()
        )
        self._actions.clear()
        self._op_id = -1

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "coverdyn" or n.startswith("coverdyn.")]
        for layer, name in enumerate(LAYERS):
            mod, *path = name.split(".")
            owner = importlib.import_module(f"coverdyn.{mod}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            leaf = path[-1]
            if isinstance(owner, type):
                raw = owner.__dict__[leaf]
                if isinstance(raw, staticmethod):
                    setattr(owner, leaf, staticmethod(self._wrap(layer, raw.__func__)))
                else:
                    setattr(owner, leaf, self._wrap(layer, raw))
                self._undo.append((owner, leaf, raw))
                continue
            fn = getattr(owner, leaf)
            traced = self._wrap(layer, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)
                        self._undo.append((m, key, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self, scale: list[float]) -> dict:
        """Per-op self time and calls of every layer, plus the nesting check.

        A span's self time is its duration minus the durations of its child
        spans; spans of one thread are sequential, so children never overlap.
        ``scale[op]`` converts that op's wall seconds to reference seconds.
        """
        n_ops = len(scale)
        layer = np.frombuffer(self.layer, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        op = np.frombuffer(self.op, dtype=np.intc)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        inner = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[inner], dur[inner])
        factor = np.asarray(scale)[op]
        self_s = (dur - child) * factor
        dur = dur * factor

        contained = bool(
            np.all(start[inner] >= start[parent[inner]])
            and np.all(end[inner] <= end[parent[inner]])
        )
        roots = ~inner
        per_op_self = np.bincount(op, weights=self_s, minlength=n_ops)
        per_op_root = np.bincount(op[roots], weights=dur[roots], minlength=n_ops)
        nesting_error = float(np.max(np.abs(per_op_self - per_op_root))) if n_ops else 0.0
        nested = (
            contained
            and bool(np.all(layer[roots] == ROOT_LAYER))
            and bool(np.all(np.bincount(op[roots], minlength=n_ops) == 1))
            and nesting_error < 1e-6
        )
        calls = np.bincount(layer, minlength=len(LAYERS))
        selfs = np.bincount(layer, weights=self_s, minlength=len(LAYERS))
        return {
            "self_s": {n: float(selfs[i]) / n_ops for i, n in enumerate(LAYERS)},
            "calls": {n: float(calls[i]) / n_ops for i, n in enumerate(LAYERS)},
            "total_calls": {n: int(calls[i]) for i, n in enumerate(LAYERS)},
            "op_s": [float(x) for x in per_op_root],
            "nested": nested,
            "nesting_error_s": nesting_error,
            "spans": len(dur),
        }

    def write(self, path: Path) -> None:
        """Gzipped CSV, one span per row; times in ns from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", newline="", encoding="utf-8", compresslevel=1) as fh:
            w = csv.writer(fh)
            w.writerow(["span", "op", "parent", "layer", "start_ns", "end_ns"])
            for i, (lay, par, op, t0, t1) in enumerate(
                zip(self.layer, self.parent, self.op, self.start, self.end)
            ):
                w.writerow([i, op, par, LAYERS[lay], round((t0 - base) * 1e9), round((t1 - base) * 1e9)])
