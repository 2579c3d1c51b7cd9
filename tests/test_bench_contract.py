"""The benchmark (perfbench/) reaches into the library two ways: its tracer
(perfbench/tracer.py) wraps functions by module and attribute path, and its
suite client and answer checks call library functions directly.  Every
target must still resolve, and every direct call must still work in the
shape the benchmark writes it."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import zgrass
import zgrass.cli  # noqa: F401  (imports every module a target names)
from zgrass import hierarchy
from zgrass.io import point_from_json
from zgrass.symfun import tvar
from zgrass.tau import tau_function, times_flow

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


def test_suite_client_calls():
    """perfbench/run.py (SuiteSession.call, suite_report) builds a frame,
    its tau, suite and verdict this way, and perfbench/workloads.py
    (verify_suite) re-evaluates one entry per family on the diff route."""
    gens = [{-1: Fraction(1), 0: Fraction(2)}]
    u = zgrass.FramePoint.from_gens([zgrass.LaurentSeries(g) for g in gens],
                                    1, (-12, 12))
    tau = tau_function(u)
    entries = hierarchy.constraint_suite(tau, 3)
    verdict = hierarchy.suite_verdict(entries)
    rows = [[e.family, [list(d.parts) for d in e.diagrams],
             None if e.value is None else str(e.value), e.needed, e.status]
            for e in entries]
    json.dumps({"suite": rows, "verdicts": verdict}, default=repr,
               sort_keys=True)
    fns = {"GR0": hierarchy.gr0_constraint,
           "P0TRIPLE": hierarchy.p0_triple_constraint,
           "CURVE": hierarchy.curve_constraint}
    for fam, fn in fns.items():
        es = [e for e in entries if e.family == fam]
        assert es and any(e.value for e in es)
        for e in es:
            assert fn(*e.diagrams, tau, route="diff") == e.value


def test_tau_check_calls():
    """perfbench/workloads.py (_check_tau) reads a tau report against the
    flowed vacuum minor this way."""
    obj = {"kind": "point", "gens": [{"0": "1"}], "tail": 1,
           "window": [-8, 8]}
    u = point_from_json(obj, (-32, 32))
    moved = u.flow(times_flow(3, u.window[0])).plucker(())
    assert moved == tvar(1).with_cap(3)
