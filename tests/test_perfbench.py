"""The benchmark reads coverdyn by name: the traced run rebinds functions
by name, and each workload's set-up builds scenarios and spaces through
their fields. Every name must resolve in this checkout."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # read-only: leave no bytecode cache next to the benchmark. A dataclass
    # resolves its module in sys.modules while the module runs
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def _resolve(layer):
    mod, *path = layer.split(".")
    obj = importlib.import_module(f"coverdyn.{mod}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_every_traced_layer_resolves():
    # a deletion or rename under src/ that a LAYERS entry names fails here,
    # not only in a traced benchmark run. The tracer rebinds names only in
    # modules already loaded, so load the CLI first, as the benchmark does.
    importlib.import_module("coverdyn.cli")
    spans = _load("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for layer in spans.LAYERS:
            assert hasattr(_resolve(layer), "__wrapped__"), f"{layer} was not rebound"
    finally:
        tracer.uninstall()
    for layer in spans.LAYERS:
        assert not hasattr(_resolve(layer), "__wrapped__"), f"{layer} was not restored"


def test_workload_setups_build_from_this_checkout():
    # the set-ups read Scenario.expected.kind, Point(pid=, index=) and
    # Space(points=, opens=); a change to those fails here, not only in a
    # benchmark run
    run = _load("run")
    assert run._builtin_setup() == {
        "iterated_contractions": "both",
        "composition": "both",
        "exp_decay": "global-uniform-only",
        "decay_grid": "both",
    }
    assert run._battery_setup() == {"battery": None}
    assert run._grid_setup() == {"grid": "both"}
