"""The traced benchmark rebinds coverdyn functions by name; every name must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # read-only: leave no bytecode cache next to the benchmark
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
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
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for layer in spans.LAYERS:
            assert hasattr(_resolve(layer), "__wrapped__"), f"{layer} was not rebound"
    finally:
        tracer.uninstall()
    for layer in spans.LAYERS:
        assert not hasattr(_resolve(layer), "__wrapped__"), f"{layer} was not restored"
