"""The benchmark's tracer finds balmat's functions by name; a rename must
fail here rather than only show up as `trace.missing_layers`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _tracing().LAYERS])
def test_traced_name_resolves(module, attr):
    assert getattr(importlib.import_module(module), attr, None) is not None
