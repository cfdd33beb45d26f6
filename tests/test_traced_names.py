"""The benchmark tracer (perfbench/spans.py) wraps skelact functions by
name; every name it lists must still resolve, so a deletion fails here
rather than in a benchmark run."""

import importlib

from conftest import perfbench_spans


def test_every_traced_name_resolves_in_skelact():
    spans = perfbench_spans()
    targets = [("autograd", op) for op in spans.OP_GROUPS]
    targets += [(module, name) for module, names in spans.LAYER_FUNCTIONS.items() for name in names]
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"skelact.{module}"), name, None))]
    assert not missing, f"perfbench/spans.py traces names skelact no longer has: {missing}"
