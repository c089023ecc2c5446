"""The benchmark's traced run wraps library calls by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_calls():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED_CALLS


@pytest.mark.parametrize("module, attr", [
    pytest.param(module, attr, id=f"{module}.{attr}") for module, attr in _traced_calls()
])
def test_traced_call_is_a_library_callable(module, attr):
    assert callable(getattr(importlib.import_module(f"ecogrid.{module}"), attr, None))
