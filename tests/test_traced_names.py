"""The benchmark tracer wraps library functions by module and name."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, name) for layer, names in tracer.TRACED.items() for name in names]


@pytest.mark.parametrize("layer,name", traced_names())
def test_traced_function_exists(layer, name):
    module = importlib.import_module(f"wzwkit.{layer}")
    assert callable(getattr(module, name, None))
