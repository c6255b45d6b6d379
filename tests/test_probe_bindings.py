"""Every name the benchmark's traced run wraps still exists in the library.

``perfbench/tracing.py`` wraps module attributes such as
``newtonpoly.eval_oracle:linprog``; a binding that is renamed or imported
lazily is reported missing and its per-layer metrics vanish from the traced
result.  This loads the tracer by file path (it is not a package) and checks
that each binding resolves.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracing = _load_tracing()
BINDINGS = sorted({binding for probe in tracing.PROBES for binding in probe.bindings})


def test_probes_are_declared():
    assert BINDINGS


@pytest.mark.parametrize("binding", BINDINGS)
def test_binding_resolves(binding):
    assert tracing._resolve(binding) is not None, f"{binding} no longer exists"
