"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
module and attribute path; every target it names must still resolve."""

import sys
from pathlib import Path

import pytest

import zgrass.cli  # noqa: F401  (imports every module a target names)

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracer
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", sorted(tracer.TARGETS))
def test_target_resolves(name):
    module, path = tracer.TARGETS[name]
    assert callable(tracer._resolve(module, path))
