"""The names the benchmark's tracer wraps must exist in the library.

perfbench/tracing.py replaces (module, attribute) pairs with timing wrappers
for ``--trace 1``; a pair that no longer resolves breaks the traced run.
The tracer is loaded by path, so the benchmark directory stays untouched.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = ([(m, a) for m, a, _ in tracing.STAGES] + list(tracing.LAYERS)
           + list(tracing.COUNTED))


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

