#!/usr/bin/env python3
"""Self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py

Runs every workload on its anchors plus a few pool requests, with tracing
off and on, each case in a forked child (set-up is measured before
zgrass is imported, so every case needs a fresh process).  Checks that the
result line has the agreed shape, that every metric of BENCHMARK.json is
present with its unit, and that the traced suite run on the ROADMAP's
3-row point alone reproduces the calibration counts: 18,821
extraction_operator calls, 14,384 Hall pairings and 264 distinct
(operator, tau) pairs.  Exits 0 when everything holds.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import run as R
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
POOL_PREFIX = 3
CALIBRATION = {"hierarchy.extract.calls": 18821,
               "hierarchy.pair.calls": 14384,
               "hierarchy.pair.distinct": 264}


def run_case(workload, trace, prefix):
    """run.main on the anchors and the first `prefix` pool requests."""
    builder = W.BUILDERS[workload]

    def small(seed):
        anchors, pool = builder(seed)
        return anchors, pool[:prefix]

    W.BUILDERS[workload] = small
    R.MIN_REQUESTS = 8  # anchors plus a couple of passes
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = R.main(["--workload", workload, "--seed", "7", "--seconds",
                       "0", "--trace", str(trace)])
    lines = buf.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def shape_problems(result, spec):
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        out.append("attempted/failed are not counts")
    if result["correct"] is not True:
        out.append("an answer was wrong")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        out.append(f"metrics differ: missing {sorted(set(want) - set(got))},"
                   f" extra {sorted(set(got) - set(want))},"
                   f" units {[k for k in want if k in got and got[k] != want[k]]}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            out.append(f"{k} is not a number")
    return out


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            code, result = R.in_child(lambda: run_case(workload, trace,
                                                    POOL_PREFIX))
            if code != 0 or result is None:
                problems.append(f"{workload} trace={trace}: exit {code} "
                                f"{result}")
                continue
            spec = bench["per_layer" if trace else "end_to_end"]
            problems += [f"{workload} trace={trace}: {p}"
                         for p in shape_problems(result, spec)]
            print(f"{workload} trace={trace}: {result['attempted']} requests,"
                  f" {result['failed']} failed, correct={result['correct']}")
    code, result = R.in_child(lambda: run_case("suite", 1, 0))
    if code != 0 or result is None:
        problems.append(f"calibration run: exit {code} {result}")
    else:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        got = {"hierarchy.extract.calls": m["hierarchy.extract.calls"],
               "hierarchy.pair.calls": m["hierarchy.pair.calls"],
               "hierarchy.pair.distinct": round(
                   m["hierarchy.pair.distinct_frac"]
                   * m["hierarchy.pair.calls"])}
        print(f"calibration on the 3-row point: {got}")
        if got != CALIBRATION:
            problems.append(f"calibration {got} != {CALIBRATION}")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest ok" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
