"""The benchmark tracer (perfbench/spans.py) wraps skelact functions by
name; every name it lists must still resolve, so a deletion fails here
rather than in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_skelact():
    spans = _spans()
    targets = [("autograd", op) for op in spans.OP_GROUPS]
    targets += [(module, name) for module, names in spans.LAYER_FUNCTIONS.items() for name in names]
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"skelact.{module}"), name, None))]
    assert not missing, f"perfbench/spans.py traces names skelact no longer has: {missing}"
