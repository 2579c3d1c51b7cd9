"""Seeded inputs for the three workloads, and the check of every answer.

Each workload is a list of anchor requests followed by endless passes over
a pool of distinct requests, every pass in its own seeded order; a run
stops only at the end of a pass, so every run serves the pool's mix
exactly.  The anchors run once, first, and are the warm-up.  The pool is
stratified: the *shapes* of the inputs (which semigroup, how many rows,
which exponents carry a coefficient, which command) come from a fixed
structure seed, so every run exercises the same cost classes in the same
proportions, while the run seed draws every coefficient value, the family
names and rationals of the flows, the curve windows, the Pfaffian entries,
which 1-row suite frames run at maxsize 4, and the request order.  That
keeps medians and tail percentiles comparable across seeds without letting
one seed's unlucky draw of a huge input dominate a run.  Pools are small
(18-24 inputs) and no pool request takes much over 0.3 s, so a pass takes
about two seconds and every input repeats 15-25 times in a run: the
latency of an input is its fastest repeat (see run.typical_latencies).
A long request rarely runs wholly inside a fast moment of the host, so
the requests that set p90 are kept near 0.1 s.

Nothing here imports zgrass: generating inputs is plain Python, so the
set-up measurement times the library import and the generation separately
from any library work.  Checks (`verify`) run after the timed loop and use
`oracle`, which works on exponent sets and report dicts.

Sizing (one line per workload, measured on a 2-core x86 container):
  suite     1-3 rows, tops <= 3, window +-12: maxsize 3 takes 25-170 ms and
            maxsize 4 on a 1-row frame 150-220 ms (on 3-row frames up to
            0.8 s, too long for a pass), so p90 falls among the 1-row
            maxsize-4 frames and the 3-row generic ones.
  plucker   charge-0 tau frames of 3-5 rows with tops 3-5 take 30-100 ms
            (4 rows at top 4 already take 0.15-0.6 s, 6 rows 1-3 s),
            bilinear on 2-6-row ring frames 30-90 ms, family-square
            10-60 ms; with the bilinear inputs at 30-55 ms, p50 falls
            among several inputs of similar cost, and p90 among the
            deformed bilinear frames and the top-5 tau frame.
  geometry  checks 11-16 ms, curve orbits 60-150 ms, 2-row point orbits
            0.2-0.27 s (3-row ones up to 0.7 s), pfaffian 12 ms (n=10) to
            70 ms (n=16; n=18 takes 0.18 s, 2^n memo).  With 18 inputs
            p90 is the second-slowest, so the point orbit is the only
            request above it and p90 falls among the curve orbits.
"""

import json
import random
from fractions import Fraction

import oracle

STRUCTURE_SEED = 1997  # fixes input shapes; the run seed draws the values

WORKLOADS = ("suite", "plucker", "geometry")

# the ROADMAP's 3-row point and the tracer calibration input
THREE_ROW = ([{-3: 1, 1: 2, 2: -1}, {-2: 1, 0: 3, 3: 1}, {-1: 1, 2: 1}], 3)


class Request:
    """One distinct input: `key` names it, repeats share the key."""

    __slots__ = ("key", "cmd", "obj", "opts", "facts")

    def __init__(self, key, cmd, obj, opts=(), facts=None):
        self.key = key
        self.cmd = cmd
        self.obj = obj          # suite: frame dict; CLI: the input file
        self.opts = list(opts)  # extra CLI arguments
        self.facts = facts or {}

    def argv(self, path):
        return [self.cmd, path, *self.opts]


def passes(anchors, pool, seed):
    """The anchors, then seeded passes over the pool, forever."""
    yield list(anchors)
    n = 0
    while True:
        order = list(pool)
        random.Random(f"{seed}/pass{n}").shuffle(order)
        yield order
        n += 1


def _val(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))


def _int(rng):
    # integer deformations: with denominators, Fraction growth in the
    # elimination made one frame's cost vary by a third between seeds
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))


def _frac_text(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _json_series(d):
    return {str(e): _frac_text(c) for e, c in sorted(d.items())}


# -- suite ----------------------------------------------------------------------


def _suite_shape(srng, rows, kind):
    """(tail, [(pivot, [exponents above it])]) with tops at most 3.

    'parity' rows use one exponent parity, so the span is sign-invariant;
    'isotropic' rows are z^p + c z^(-p-1) over tail p+1, which pair to zero
    under the twisted residue pairing.
    """
    if kind == "isotropic":
        return rows, [(-p - 1, [p]) for p in range(rows)]
    tail = srng.randint(max(0, rows - 2), rows + 1)
    out = []
    for lo in sorted(srng.sample(range(-tail, 2), rows)):
        step = 2 if kind == "parity" else 1
        cands = list(range(lo + step, 4, step))
        out.append((lo, sorted(srng.sample(cands, min(len(cands),
                                                      srng.randint(1, 3))))))
    return tail, out


def _suite_frame(shape, vrng, value=_val):
    tail, rows = shape
    gens = []
    for lo, ups in rows:
        g = {lo: value(vrng)}
        for e in ups:
            g[e] = value(vrng)
        gens.append(g)
    return gens, tail


def build_suite(seed):
    srng, vrng = random.Random(STRUCTURE_SEED), random.Random(seed)
    gens, tail = THREE_ROW
    anchors = [Request("suite-3row-m4", "suite",
                       {"gens": [{e: Fraction(c) for e, c in g.items()}
                                 for g in gens],
                        "tail": tail, "window": (-12, 12), "maxsize": 4})]
    pool = []
    for rows in (1, 2, 3):
        for kind in ("generic", "parity", "isotropic"):
            shape = _suite_shape(srng, rows, kind)
            heavy = vrng.randrange(2) if rows == 1 else None
            for i in range(2):
                g, t = _suite_frame(shape, vrng)
                pool.append(Request(
                    f"suite-{rows}{kind[0]}{i}", "suite",
                    {"gens": g, "tail": t, "window": (-12, 12),
                     "maxsize": 4 if i == heavy else 3}))
    return anchors, pool


# -- plucker --------------------------------------------------------------------


def _ring_frame(gens, srng, vrng, depth, count, window=24):
    """Ring point of <gens>, each row deformed at `count` exponents at most
    `depth` steps above its pivot (positions fixed, values seeded)."""
    elems, _, cond = oracle.semigroup(gens)
    rows = []
    for s in sorted(x for x in elems if x < cond):
        row = {-s: Fraction(1)}
        cands = [e for e in range(-s + 1, min(-s + depth, 0) + 1)
                 if -e not in elems]
        for e in srng.sample(cands, min(count, len(cands))):
            row[e] = _int(vrng)
        rows.append(row)
    obj = {"kind": "point", "gens": [_json_series(r) for r in rows],
           "tail": cond - 1, "window": [-window, window]}
    return obj, {"rows": rows, "tail": cond - 1}


def _vacuum_frame(rows, top, count, srng, vrng, window=24):
    """Charge-0 frame: row p is z^-(p+1) plus `count` integer terms at
    exponents from -p to `top` (positions fixed by srng, values by vrng),
    over tail `rows`.  Its Pluecker box is rows x (top + 1)."""
    gens = []
    for p in range(rows):
        row = {-(p + 1): Fraction(1)}
        for e in srng.sample(range(-p, top + 1), count):
            row[e] = _int(vrng)
        gens.append(row)
    obj = {"kind": "point", "gens": [_json_series(r) for r in gens],
           "tail": rows, "window": [-window, window]}
    return obj, {"rows": gens, "tail": rows}


# `tau` runs on charge-0 frames (rows, top, terms per row); semigroup ring
# frames (semigroup, deformation depth, deformations per row) go through
# `bilinear` and `baker`.  Exact `tau` on a ring frame of negative charge
# is the false alarm measured by TAU_FALSE_ALARM_FRAMES instead.
_VACUUM_TAU = ((3, 3, 2), (3, 3, 2), (3, 5, 2), (4, 3, 1), (5, 3, 1))
_RING_FRAMES = (
    ("baker", (3, 4), 0, 0), ("baker", (2, 9), 3, 1),
    ("bilinear", (3, 4), 3, 2), ("bilinear", (3, 5), 3, 1),
    ("bilinear", (4, 6, 7), 0, 0), ("bilinear", (2, 9), 3, 1),
    ("bilinear", (2, 11), 0, 0), ("bilinear", (2, 5), 0, 0),
    ("bilinear", (3, 5), 0, 0), ("bilinear", (3, 4, 5), 0, 0),
    ("bilinear", (2, 7), 3, 1),
)
# undeformed ring points on which `tau` exits 1 with a right value: its
# flow check compares Fraction(0) with an empty polynomial capped at 4
TAU_FALSE_ALARM_FRAMES = ((3, 4), (2, 9), (4, 5), (3, 7))


def false_alarm_requests():
    """`tau` on the undeformed ring points of TAU_FALSE_ALARM_FRAMES."""
    out = []
    for gens in TAU_FALSE_ALARM_FRAMES:
        obj, facts = _ring_frame(gens, random.Random(0), None, 0, 0)
        out.append(Request(f"plk-alarm-tau-{'.'.join(map(str, gens))}", "tau",
                           obj, (), facts))
    return out


def _iso_base(vrng, rows):
    """Charge-0 isotropic base point for family-square."""
    return {"gens": [_json_series({p: 1, -p - 1: _val(vrng)})
                     for p in range(rows)], "tail": rows}


def _family(key, flows, floor, weight, base=None):
    obj = {"kind": "family", "flows": flows, "floor": floor}
    if base is not None:
        obj["base"] = base
    # the flowed frame materializes -floor + charge(base) rows (bases here
    # have charge 0) and the weight-w coordinate of (1^w) needs w of them
    return Request(key, "family-square", obj, ["--weight", str(weight)],
                   {"weight": weight, "refuse": weight > -floor,
                    "vacuum": base is None})


def build_plucker(seed):
    srng, vrng = random.Random(STRUCTURE_SEED), random.Random(seed)
    cusp = {"kind": "point", "gens": [{"0": "1"}], "tail": 1,
            "window": [-8, 8]}
    cusp_facts = {"rows": [{0: Fraction(1)}], "tail": 1}
    anchors = [
        Request("plk-cusp-tau", "tau", cusp, (), cusp_facts),
        Request("plk-cusp-bilinear", "bilinear", cusp, (), cusp_facts),
        _family("plk-two-family", {"1": "a", "3": "b"}, -10, 6),
    ]
    pool = []
    for i, (rows, top, count) in enumerate(_VACUUM_TAU):
        obj, facts = _vacuum_frame(rows, top, count, srng, vrng)
        pool.append(Request(f"plk-tau{i}-r{rows}t{top}", "tau", obj, (),
                            facts))
    for cmd, gens, depth, count in _RING_FRAMES:
        obj, facts = _ring_frame(gens, srng, vrng, depth, count)
        pool.append(Request(
            f"plk-{cmd}-{'.'.join(map(str, gens))}-d{depth}{count}",
            cmd, obj, (), facts))
    fam = vrng.choice("abcdefgh")
    fam2 = vrng.choice("pqrsuvw")
    q = [_frac_text(_val(vrng)) for _ in range(4)]
    pool += [
        _family("plk-fs-1", {"1": fam, "3": fam2}, -8, 8),
        _family("plk-fs-2", {"1": fam, "3": q[0]}, -10, 8),
        _family("plk-fs-3", {"1": q[1], "3": fam, "5": fam2}, -8, 6,
                _iso_base(vrng, 1)),
        _family("plk-fs-4", {"1": fam, "3": fam}, -8, 6, _iso_base(vrng, 2)),
        _family("plk-fs-5", {"1": q[2], "3": q[3]}, -6, 6),
        _family("plk-fs-6", {"1": fam, "5": fam2}, -8, 8, _iso_base(vrng, 1)),
        _family("plk-fs-refuse-1", {"1": fam, "3": fam2}, -4, 6),
        _family("plk-fs-refuse-2", {"1": fam, "3": q[0]}, -6, 8,
                _iso_base(vrng, 2)),
    ]
    return anchors, pool


# -- geometry -------------------------------------------------------------------

_RING_CURVES = ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (3, 4, 5))
_CHECKED_RINGS = ((2, 5), (3, 4, 5))
_MODULE_CURVES = (((2, 5), (0, 1)), ((3, 5), (1,)))
_CHECKED_MODULES = (((3, 5), (1,)),)
_POINT_ROWS = (2,)
_PFAFFIAN_SIZES = (10, 12, 14, 16, 16)


def _curve(key, cmd, ring, mods, radius):
    obj = {"kind": "curve", "ring_gens": [{str(-g): "1"} for g in ring],
           "label": f"<{','.join(map(str, ring))}>", "window": [-radius, radius]}
    if mods:
        obj["module_gens"] = [{str(-m): "1"} for m in mods]
    return Request(key, cmd, obj, (),
                   {"orders": oracle.module_orders(ring, mods or (0,))})


def build_geometry(seed):
    srng, vrng = random.Random(STRUCTURE_SEED), random.Random(seed)
    anchors = [_curve(f"geo-anchor-{cmd}", cmd, (2, 5), (), 24)
               for cmd in ("check", "orbit")]
    pool = []
    for ring, mods in [(r, ()) for r in _RING_CURVES] + list(_MODULE_CURVES):
        name = ".".join(map(str, ring)) + (
            f"-m{''.join(map(str, mods))}" if mods else "")
        cmds = ("check", "orbit") if (ring in _CHECKED_RINGS and not mods) or (
            (ring, mods) in _CHECKED_MODULES) else ("orbit",)
        for cmd in cmds:
            pool.append(_curve(f"geo-{cmd}-{name}", cmd, ring, mods,
                               vrng.choice((16, 20, 24, 28, 32))))
    for i, rows in enumerate(_POINT_ROWS):
        gens, tail = _suite_frame(_suite_shape(srng, rows, "generic"), vrng,
                                  _int)
        obj = {"kind": "point", "gens": [_json_series(g) for g in gens],
               "tail": tail, "window": [-12, 12]}
        for cmd in ("check", "orbit") if i == 0 else ("orbit",):
            pool.append(Request(f"geo-point{i}-{cmd}", cmd, obj, (),
                                {"rows": gens, "tail": tail}))
    for i, n in enumerate(_PFAFFIAN_SIZES):
        m = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                # nonzero entries: a zero prunes the 2^n expansion, and the
                # cost of a size class should not depend on the seed
                v = vrng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
                m[a][b], m[b][a] = v, -v
        pool.append(Request(f"geo-pf{i}-n{n}", "pfaffian",
                            {"kind": "matrix",
                             "entries": [[str(x) for x in r] for r in m]},
                            (), {"matrix": m}))
    return anchors, pool


BUILDERS = {"suite": build_suite, "plucker": build_plucker,
            "geometry": build_geometry}


def build(workload, seed):
    """(anchors, pool, serialized input files by key) for one run."""
    anchors, pool = BUILDERS[workload](seed)
    files = {}
    if workload != "suite":
        for r in anchors + pool:
            files[r.key] = json.dumps(r.obj, sort_keys=True)
    return anchors, pool, files


# -- checks ---------------------------------------------------------------------


def expected_exit(req):
    if req.cmd == "family-square" and req.facts["refuse"]:
        return 2
    return 0


def _checks(rep):
    return {c["name"]: c["status"] for c in rep.get("checks", ())}


def verify_cli(req, code, text):
    """Problems with one CLI answer, as a list of strings (empty: right).

    An unexpected exit status is reported by the caller, not here: this
    judges the reported values, so a run can tell a false alarm (right
    values, wrong verdict) from a wrong value.
    """
    rep = json.loads(text)
    f = req.facts
    if req.cmd == "family-square" and f["refuse"]:
        if code == 2 and rep.get("error", "").startswith("WindowTooSmall"):
            return []
        return [f"expected a WindowTooSmall refusal, got exit {code}"]
    if "report" not in rep:
        return [f"no report: {rep.get('error')}"]
    body = rep["report"]
    return CHECKS[req.cmd](req, body, _checks(rep))


def _check_tau(req, body, checks):
    from zgrass.io import point_from_json
    from zgrass.tau import times_flow

    u = point_from_json(req.obj, (-32, 32))
    cap = body["tau"]["cap"]
    moved = u.flow(times_flow(cap, u.window[0])).plucker(())
    if not oracle.capped_equal(body["tau"], moved, cap):
        return [f"tau differs from the flowed vacuum minor through weight {cap}"]
    return []


def _check_bilinear(req, body, checks):
    span = oracle.Span(req.facts["rows"], req.facts["tail"])
    inv = span.sigma_invariant()
    out = []
    if body["first_residual"]["terms"]:
        out.append("first residual does not vanish")
    if (not body["second_residual"]["terms"]) != inv:
        out.append("second residual disagrees with sign invariance")
    if body["sigma_invariant"] != inv:
        out.append("sigma_invariant flag is wrong")
    return out


def _check_baker(req, body, checks):
    blocks = body["blocks"]
    if len(blocks) != 8:
        return [f"{len(blocks)} blocks, expected 8"]
    for i, b in enumerate(blocks):
        if b["block"] != {"cap": 8, "terms": oracle.schur_p_terms(i + 1)}:
            return [f"block {i} is not p_{i + 1}"]
    if checks.get("duality-residues") != "pass":
        return ["duality residues do not vanish"]
    return []


def _check_family(req, body, checks):
    out = []
    if checks.get("prym-flow") != "pass":
        out.append("odd flow failed the Prym check")
    if req.facts["vacuum"] and body["section"] != "1/1":
        out.append("vacuum section is not 1")
    if "root" in body:
        w = req.facts["weight"]
        root = oracle.poly_from_report(body["root"])
        scale = oracle.frac(body["scale"])
        sq = {m: c * scale for m, c in oracle.poly_mul(root, root, w).items()}
        odd = oracle.odd_restriction(oracle.poly_from_report(body["tau"]))
        if sq != {m: c for m, c in odd.items() if oracle.mono_weight(m) <= w}:
            out.append("scale * root^2 differs from the odd part of tau")
    return out


def _orders_or_span(req):
    """Monomial curves are judged on exponent sets, points by elimination."""
    if "orders" in req.facts:
        return req.facts["orders"], None
    return None, oracle.Span(req.facts["rows"], req.facts["tail"])


def _check_check(req, body, checks):
    orders, span = _orders_or_span(req)
    out = []
    if orders is not None:
        if body["charge"] != oracle.orders_charge(orders):
            out.append("curve charge is wrong")
        if body.get("ring") != oracle.orders_ring(orders):
            out.append("ring flag is wrong")
    else:
        if body["charge"] != span.charge:
            out.append("point charge is wrong")
        if body["sigma_invariant"] != span.sigma_invariant():
            out.append("sigma_invariant flag is wrong")
    return out


def _check_orbit(req, body, checks):
    orders, span = _orders_or_span(req)
    basis = [{int(e): oracle.frac(c) for e, c in b.items()}
             for b in body["stabilizer"]]
    out = []
    if orders is not None:
        if body["verdict"] != "stable" or (
                body["value"] != oracle.multiplier_gaps(orders)):
            out.append("orbit value is not the gap count")
        if not oracle.stabilizer_keeps_orders(basis, orders):
            out.append("a stabilizer element moves a row out of the span")
    elif not all(span.keeps(f) for f in basis):
        out.append("a stabilizer element moves a row out of the span")
    return out


def _check_pfaffian(req, body, checks):
    det = oracle.det_bareiss(req.facts["matrix"])
    pf = oracle.frac(body["pfaffian"])
    out = []
    if oracle.frac(body["determinant"]) != det:
        out.append("determinant is wrong")
    if pf * pf != det:
        out.append("Pfaffian squared is not the determinant")
    return out


CHECKS = {"tau": _check_tau, "bilinear": _check_bilinear,
          "baker": _check_baker, "family-square": _check_family,
          "check": _check_check, "orbit": _check_orbit,
          "pfaffian": _check_pfaffian}


def verify_suite(req, tau, entries, seed):
    """Re-evaluate sampled suite entries through the diff route.

    One entry per family, drawn with the run seed; the diff route applies
    each operator as scaled derivatives instead of pairing monomials, so it
    shares no evaluation code with the Hall values being checked.
    """
    from zgrass import hierarchy as H

    rng = random.Random(f"{seed}/{req.key}")
    fns = {"GR0": H.gr0_constraint, "P0TRIPLE": H.p0_triple_constraint,
           "CURVE": H.curve_constraint}
    out = []
    for fam in ("GR0", "P0TRIPLE", "CURVE"):
        rows = [e for e in entries if e.family == fam]
        e = rng.choice(rows)
        v = fns[fam](*e.diagrams, tau, route="diff")
        if v != e.value:
            out.append(f"{fam}{[d.parts for d in e.diagrams]}: hall {e.value}"
                       f" vs diff {v}")
    return out
