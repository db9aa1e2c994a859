"""The benchmark's trace points must name functions that exist.

perfbench/tracing.py wraps heavykin functions by module attribute; a name
that disappears would crash a traced benchmark round.  This test fails
instead, when the rename happens.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolve it by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TRACE_POINTS


@pytest.mark.parametrize("module_name, attr",
                         [point[:2] for point in _load_trace_points()])
def test_trace_point_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
