#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of zgrass.

    python3 perfbench/run.py --workload suite|plucker|geometry \
        --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  One
client sends one request at a time (a closed loop) for S seconds, and at
least MIN_REQUESTS requests so that p90 has ten samples above it:

  suite     a long-lived library session: tau_function -> constraint_suite
            -> suite_verdict per frame, module caches staying warm.
  plucker   cold CLI requests (tau, bilinear, baker, family-square), each
  geometry  cold CLI requests (check, orbit, pfaffian), each run as
            zgrass.cli.main(argv) in a child forked after `import zgrass`
            and before any computation; the timer covers only main().

The serving process times a fixed reference task (speed.py) just before
each request, and the run's times are scaled to the reference speed, so
that a host running slower for minutes does not read as a slower zgrass;
the table prints the unscaled figures too.

Every answer is checked after the loop (see workloads.verify_*).  The last
line of stdout is one JSON object; with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run over one fixed pass of the stream instead of --seconds (so its
counts repeat exactly for a seed), together with the tracing overhead
against the same requests untraced and the `tau` false alarms on ring
points (plucker only).  Lines before it are a human-readable table.

Exit status 0 with a result; 2 without one when the library cannot be
imported from ./src.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import select
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import speed as S
import tracer as T
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 19     # fresh set-ups per run; setup_s is their median
MIN_REQUESTS = 100     # p90 needs ten requests above it
LOOP_LIMIT_S = 120     # hard stop for the timed loop
REQUEST_TIMEOUT_S = 60
HASH_SEED = "0"        # PYTHONHASHSEED of every run (see the end of the file)


class SetupFailed(Exception):
    pass


# -- set-up -----------------------------------------------------------------------


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import zgrass
        import zgrass.cli  # noqa: F401  (pulls in every module)
    except ImportError as exc:
        raise SetupFailed(f"cannot import zgrass from {SRC}: {exc}") from None
    if not Path(zgrass.__file__).resolve().is_relative_to(SRC):
        raise SetupFailed(f"zgrass imported from {zgrass.__file__}, not {SRC}")


def setup_once(workload, seed):
    t0 = time.perf_counter()
    import_library()
    built = W.build(workload, seed)
    return time.perf_counter() - t0, built


def in_child(fn):
    """Run fn() in a forked child; return its JSON-able result."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            data = json.dumps({"ok": fn()})
        except BaseException as exc:  # report and leave, whatever it was
            data = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
        _write_all(w, data.encode())
        os._exit(0)
    os.close(w)
    raw, timed_out = _read_all(r, pid, None)
    os.close(r)
    os.waitpid(pid, 0)
    out = json.loads(raw) if raw else {"error": "child died"}
    if "error" in out:
        raise SetupFailed(out["error"])
    return out["ok"]


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
    os.close(fd)


def _read_all(fd, pid, timeout):
    """Read until EOF; kill the child if it outlives the timeout."""
    chunks, deadline = [], None if timeout is None else time.monotonic() + timeout
    while True:
        wait = None if deadline is None else max(0.0, deadline - time.monotonic())
        ready, _, _ = select.select([fd], [], [], wait)
        if not ready:
            os.kill(pid, signal.SIGKILL)
            return b"".join(chunks), True
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks), False
        chunks.append(chunk)


def measure_setup(workload, seed):
    """Median of fresh set-ups: each child imports zgrass anew."""
    if "zgrass" in sys.modules:
        raise RuntimeError("set-up must be measured before the import")
    times = [in_child(lambda: setup_once(workload, seed)[0])
             for _ in range(SETUP_REPEATS)]
    dt, built = setup_once(workload, seed)
    return statistics.median(times + [dt]), built


# -- requests ---------------------------------------------------------------------


def suite_report(entries, verdict):
    rows = [[e.family, [list(d.parts) for d in e.diagrams],
             None if e.value is None else str(e.value), e.needed, e.status]
            for e in entries]
    return json.dumps({"suite": rows, "verdicts": verdict}, default=repr,
                      sort_keys=True)


class SuiteSession:
    """The in-process client of the suite workload.

    Library functions are looked up on their modules at every call, so a
    tracer installed after the session exists still sees them.
    """

    def __init__(self):
        import zgrass
        from zgrass import hierarchy, tau

        self.zgrass, self.tau, self.hierarchy = zgrass, tau, hierarchy
        self.first = {}  # key -> (tau, entries) of the first answer

    def call(self, req):
        o, z, H = req.obj, self.zgrass, self.hierarchy
        ref = S.reference()
        t0 = time.perf_counter()
        try:
            u = z.FramePoint.from_gens([z.LaurentSeries(g) for g in o["gens"]],
                                       o["tail"], o["window"])
            tau = self.tau.tau_function(u)
            entries = H.constraint_suite(tau, o["maxsize"])
            verdict = H.suite_verdict(entries)
        except Exception as exc:
            return {"key": req.key, "dt": time.perf_counter() - t0,
                    "ref": ref, "raised": f"{type(exc).__name__}: {exc}"}
        dt = time.perf_counter() - t0
        if req.key not in self.first:
            self.first[req.key] = (tau, entries)
        return {"key": req.key, "dt": dt, "ref": ref, "code": 0,
                "text": suite_report(entries, verdict)}


def cli_call(req, path, tracing, budget):
    """One cold CLI request in a forked child."""
    import zgrass.cli as cli

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            if tracing:
                T.ACTIVE = T.Tracer()
                T.ACTIVE.begin(0)
            buf, raised, code = io.StringIO(), None, None
            ref = S.reference()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(buf):
                    code = cli.main(req.argv(path))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:
                raised = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            payload = {"dt": dt, "ref": ref, "code": code,
                       "text": buf.getvalue(),
                       "rss_kb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss}
            if raised:
                payload["raised"] = raised
            if tracing:
                T.ACTIVE.end()
                payload["trace"] = T.ACTIVE.summary()
                payload["spans"] = T.ACTIVE.spans[:budget]
            data = json.dumps(payload).encode()
        except BaseException as exc:
            data = json.dumps({"raised": f"{type(exc).__name__}: {exc}"}).encode()
        _write_all(w, data)
        os._exit(0)
    os.close(w)
    t0 = time.perf_counter()
    raw, timed_out = _read_all(r, pid, REQUEST_TIMEOUT_S)
    os.close(r)
    os.waitpid(pid, 0)
    if timed_out or not raw:
        return {"key": req.key, "dt": time.perf_counter() - t0,
                "raised": "timed out" if timed_out else "child died"}
    out = json.loads(raw)
    out["key"] = req.key
    out.setdefault("dt", time.perf_counter() - t0)
    return out


def run_loop(batches, call, firsts, seconds=None, passes=None):
    """Closed loop, one client, over the batches of `workloads.passes`:
    the anchors plus `passes` passes, or whole passes until `seconds` have
    gone by and MIN_REQUESTS are done (or LOOP_LIMIT_S is reached).

    Reports are reduced to digests as they arrive, keeping the text of the
    first answer per input in `firsts`, so memory held for checking does
    not grow with run length (forked children count it in their RSS)."""
    results, start = [], time.perf_counter()
    for n, batch in enumerate(batches):
        if passes is not None:
            if n > passes:
                break
        elif n > 0:
            spent = time.perf_counter() - start
            if spent >= LOOP_LIMIT_S or (spent >= seconds
                                         and len(results) >= MIN_REQUESTS):
                break
        for req in batch:
            res = call(req)
            text = res.pop("text", None)
            if text is not None:
                res["digest"] = hashlib.sha256(text.encode()).digest()
                res["bytes"] = len(text.encode())
                firsts.setdefault(req.key, (res["code"], text))
            results.append(res)
    return results


# -- checks -----------------------------------------------------------------------


def judge(workload, seed, results, requests, firsts, session):
    """Mark every request; returns (failed count, wrong-answer notes,
    per-reason counts).  A request fails when it raised, exited with
    another status than the input calls for, returned a wrong answer, or
    repeated an input with a different report."""
    digests, verdicts, notes, reasons, failed = {}, {}, [], {}, 0
    for res in results:
        key, req = res["key"], requests[res["key"]]
        why = None
        if "raised" in res:
            why = "raised"
        else:
            if key not in digests:
                digests[key] = res["digest"]
                if workload == "suite":
                    verdicts[key] = W.verify_suite(req, *session.first[key],
                                                   seed)
                else:
                    verdicts[key] = W.verify_cli(req, *firsts[key])
                notes += [f"{key}: {n}" for n in verdicts[key]]
            if res["digest"] != digests[key]:
                why = "nondeterministic report"
                notes.append(f"{key}: repeat gave a different report")
            elif verdicts[key]:
                why = "wrong answer"
            elif workload != "suite" and res["code"] != W.expected_exit(req):
                why = f"{req.cmd} exit {res['code']}"
        if why:
            failed += 1
            reasons[why] = reasons.get(why, 0) + 1
    return failed, notes, reasons


# -- metrics ----------------------------------------------------------------------


def typical_latencies(results):
    """Each request's time, taken as the fastest time of its input in the
    run, as timeit does.  Every pool input repeats once per pass and each
    repeat does the same work (a cold child; in the suite session, warm
    caches after the first pass), so slower repeats measure load from
    elsewhere: on the 2-vCPU machine this was built on, a fixed Python
    loop flips between two speeds 1.8x apart many times a minute, and a
    whole run can fall mostly in the slow one.  Short requests and many
    repeats per input let the fastest repeat land in a fast moment."""
    fastest = {}
    for r in results:
        fastest[r["key"]] = min(r["dt"], fastest.get(r["key"], r["dt"]))
    return [fastest[r["key"]] for r in results]


def latency_metrics(lat):
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "req_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "req_p90_ms": (deciles[-1] * 1e3, "ms"),
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
    }


def end_to_end(results, anchors, setup_s, peak_kb, failed):
    """The six metrics a user sees, and the timed ones unscaled.

    Latencies are typical_latencies() of the pool requests (the anchors
    run once, first, as the warm-up).  Times are scaled to the reference
    speed by speed.factor() of the reference timings taken next to every
    request.
    """
    lat = typical_latencies([r for r in results if r["key"] not in anchors])
    k = S.factor([r["ref"] for r in results if "ref" in r])
    metrics = {
        "setup_s": (setup_s * k, "s"),
        **latency_metrics([t * k for t in lat]),
        "ok_frac": (1 - failed / len(results), "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return metrics, (k, {"setup_s": (setup_s, "s"), **latency_metrics(lat)})


PER_LAYER_CALLS = ("hierarchy.extract", "symfun.hall", "symfun.poly_mul",
                   "symfun.schur", "linalg.det_ring", "linalg.det_unit",
                   "linalg.det_field", "linalg.rref", "grassmann.minor",
                   "pfaffian.pfaffian", "krichever.stabilizer", "series.mul",
                   "series.substitute")
PER_LAYER_SELF = ("hierarchy.constraint_suite", "symfun.hall",
                  "symfun.poly_mul", "symfun.schur", "linalg.det_ring",
                  "linalg.det_unit", "linalg.det_field", "linalg.rref",
                  "grassmann.minor", "grassmann.flow", "grassmann.orthogonal",
                  "tau.plucker_support", "tau.tau_function",
                  "tau.bilinear_residues", "pfaffian.pfaffian",
                  "pfaffian.section_square_check", "krichever.span_closure",
                  "krichever.stabilizer", "krichever.orbit_profile",
                  "krichever.is_ring_point", "series.mul",
                  "series.substitute", "io.load", "cli.main")
ALIASES = {"hierarchy.extract": "hierarchy.extraction_operator"}


def per_layer(tr, report_bytes, overhead_ms, alarms):
    def stat(name, i):
        return tr.stats.get(ALIASES.get(name, name), [0, 0, 0])[i]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (stat(name, 0), "count")
    for name in PER_LAYER_SELF:
        m[f"{name}.self_s"] = (stat(name, 1) / 1e9, "s")
    pair = tr.via.get("symfun.hall@hierarchy", 0)
    m["hierarchy.pair.calls"] = (pair, "count")
    m["hierarchy.pair.distinct_frac"] = (
        ratio(tr.distinct.get("symfun.hall@hierarchy", 0), pair), "ratio")
    minors = stat("grassmann.minor", 0)
    m["grassmann.minor.distinct_frac"] = (
        ratio(tr.distinct.get("grassmann.minor@grassmann", 0), minors),
        "ratio")
    m["grassmann.refusals"] = (tr.refusals, "count")
    m["linalg.det_unit.fallbacks"] = (stat("linalg.det_unit", 2), "count")
    m["linalg.det_ring.max_n"] = (tr.max_n.get("linalg.det_ring", 0), "count")
    m["pfaffian.pfaffian.max_n"] = (tr.max_n.get("pfaffian.pfaffian", 0),
                                    "count")
    box = tr.edges.get("tau.plucker_support>grassmann.plucker", 0)
    m["tau.plucker_support.box"] = (box, "count")
    m["tau.plucker_support.hit_frac"] = (
        ratio(tr.sizes.get("tau.plucker_support", 0), box), "ratio")
    m["cli.report_bytes"] = (report_bytes, "bytes")
    m["cli.tau_false_alarms"] = (alarms, "count")
    m["trace.overhead_ms"] = (overhead_ms, "ms")
    return m


# -- runs -------------------------------------------------------------------------


def prepare(workload, seed, run_dir):
    setup_s, (anchors, pool, files) = measure_setup(workload, seed)
    requests = {r.key: r for r in anchors + pool}
    paths = {}
    if files:
        run_dir.mkdir(parents=True, exist_ok=True)
        for key, text in files.items():
            p = run_dir / f"{key}.json"
            p.write_text(text)
            paths[key] = str(p)
    return setup_s, anchors, pool, requests, paths


def timed_run(workload, seed, seconds, run_dir):
    setup_s, anchors, pool, requests, paths = prepare(workload, seed, run_dir)
    reqs, firsts, session = W.passes(anchors, pool, seed), {}, None
    if workload == "suite":
        session = SuiteSession()
        results = run_loop(reqs, session.call, firsts, seconds=seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        results = run_loop(reqs, lambda r: cli_call(r, paths[r.key], False, 0),
                           firsts, seconds=seconds)
        peak_kb = max(r.get("rss_kb", 0) for r in results)
    failed, notes, reasons = judge(workload, seed, results, requests, firsts,
                                   session)
    metrics, unscaled = end_to_end(results, {r.key for r in anchors}, setup_s,
                                   peak_kb, failed)
    return results, failed, notes, reasons, metrics, requests, unscaled


def traced_run(workload, seed, run_dir):
    """One pass of the stream untraced, then the same pass traced."""
    setup_s, anchors, pool, requests, paths = prepare(workload, seed, run_dir)
    n = len(anchors) + len(pool)
    tr, firsts, session = T.Tracer(), {}, None
    rids = iter(range(n))
    if workload == "suite":
        plain = in_child(lambda: [r["dt"] for r in run_loop(
            W.passes(anchors, pool, seed), SuiteSession().call, {},
            passes=1)])
        session = SuiteSession()

        def call(req):
            tr.begin(next(rids))
            try:
                return session.call(req)
            finally:
                tr.end()
    else:
        plain = [r["dt"] for r in run_loop(
            W.passes(anchors, pool, seed),
            lambda r: cli_call(r, paths[r.key], False, 0), {}, passes=1)]

        def call(req):
            res = cli_call(req, paths[req.key], True,
                           T.MAX_SPANS - len(tr.spans))
            rid = next(rids)
            if "trace" in res:
                tr.merge(res.pop("trace"))
                tr.spans += [(rid, *s[1:]) for s in res.pop("spans")]
            return res
    undo = T.install(tr)
    try:
        results = run_loop(W.passes(anchors, pool, seed), call, firsts,
                           passes=1)
    finally:
        T.uninstall(undo)
    failed, notes, reasons = judge(workload, seed, results, requests, firsts,
                                   session)
    alarms = 0
    if workload == "plucker":
        alarms, wrong = tau_false_alarms(run_dir)
        notes += wrong
    overhead_ms = (sum(r["dt"] for r in results) - sum(plain)) / n * 1e3
    report_bytes = 0 if session else sum(r.get("bytes", 0) for r in results)
    metrics = per_layer(tr, report_bytes, overhead_ms, alarms)
    OUT.mkdir(exist_ok=True)
    T.write_spans(tr, OUT / f"spans-{workload}-seed{seed}.tsv")
    return results, failed, notes, reasons, metrics, requests, None


def tau_false_alarms(run_dir):
    """Cold `tau` on the ring points of workloads.TAU_FALSE_ALARM_FRAMES,
    outside the workload: (how many exit 1 with a right tau, notes on
    wrong values)."""
    alarms, notes = 0, []
    for req in W.false_alarm_requests():
        path = run_dir / f"{req.key}.json"
        path.write_text(json.dumps(req.obj, sort_keys=True))
        res = cli_call(req, str(path), False, 0)
        if "raised" in res:
            notes.append(f"{req.key}: {res['raised']}")
            continue
        wrong = W.verify_cli(req, res["code"], res["text"])
        notes += [f"{req.key}: {n}" for n in wrong]
        alarms += res["code"] != 0 and not wrong
    return alarms, notes


def request_class(req):
    return f"maxsize{req.obj['maxsize']}" if req.cmd == "suite" else req.cmd


def print_table(workload, seed, results, failed, reasons, metrics, notes,
                requests, unscaled):
    print(f"workload {workload}, seed {seed}: {len(results)} requests, "
          f"{failed} failed (fail_frac {failed / len(results):.4f})")
    for why, k in sorted(reasons.items()):
        print(f"  failed: {k} x {why}")
    for note in notes[:20]:
        print(f"  wrong: {note}")
    by_cmd = {}
    for r in results:
        by_cmd.setdefault(request_class(requests[r["key"]]), []).append(r["dt"])
    for name, value_unit in metrics.items():
        value, unit = value_unit
        print(f"  {name:40s} {value:>14.6g} {unit}")
    if unscaled:
        k, m = unscaled
        print(f"  speed factor {k:.4f}; unscaled: " + ", ".join(
            f"{name} {v:.6g} {u}" for name, (v, u) in m.items()))
    raw = [r["dt"] for r in results]
    if len(raw) > 1:
        print(f"  raw request times: p50 {statistics.median(raw) * 1e3:.3f} "
              f"ms, p90 {statistics.quantiles(raw, n=10)[-1] * 1e3:.3f} ms, "
              f"{len(raw)} samples")
    print("  median ms by request class: " + ", ".join(
        f"{k} {statistics.median(v) * 1e3:.1f} (n={len(v)})"
        for k, v in sorted(by_cmd.items())))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            out = traced_run(args.workload, args.seed, run_dir)
        else:
            out = timed_run(args.workload, args.seed, args.seconds, run_dir)
        results, failed, notes, reasons, metrics, requests, unscaled = out
    except SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print_table(args.workload, args.seed, results, failed, reasons, metrics,
                notes, requests, unscaled)
    print(json.dumps({
        "correct": not notes,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # String hashes order sets and dicts, and so the order of the exact
    # arithmetic: over five hash seeds one suite seed's p90 ranged from 124
    # to 166 ms, and within 3% over three runs with the same hash seed.
    # Every run therefore serves the same program under hash seed 0.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
