"""Outside-in spans around the library's public functions.

`install()` wraps each function of `TARGETS` at every attribute that binds
it -- module globals across all of zgrass (so `hall` is caught in both
`zgrass.symfun` and `zgrass.hierarchy`, `det_field` in `linalg`, `grassmann`
and `cli`) and class attributes (so `__rmul__ = __mul__` is caught too).
Nothing under src/ changes; `uninstall()` puts the originals back.

A span is (request id, span id, parent span id, name, start ns, end ns).
Spans stay in memory, capped at MAX_SPANS, and `write_spans` stores them
at the end of a run.  Self time is a span's duration minus the time its
child spans cover; it is accumulated when a span closes, so the per-name
statistics cover every span, kept or not.
"""

import sys
from time import perf_counter_ns

MAX_SPANS = 100_000

# span name -> (module, attribute path) of the function it wraps
TARGETS = {
    "series.mul": ("series", "LaurentSeries.__mul__"),
    "series.substitute": ("series", "LaurentSeries.substitute"),
    "series.invert": ("series", "LaurentSeries.invert"),
    "series.exp_floor": ("series", "exp_floor"),
    "symfun.poly_mul": ("symfun", "TimePolynomial.__mul__"),
    "symfun.schur": ("symfun", "schur"),
    "symfun.schur_p": ("symfun", "schur_p"),
    "symfun.strip_sum": ("symfun", "strip_sum"),
    "symfun.hall": ("symfun", "hall"),
    "symfun.apply_tilde": ("symfun", "apply_tilde"),
    "symfun.sqrt_series": ("symfun", "sqrt_series"),
    "linalg.det_field": ("linalg", "det_field"),
    "linalg.det_ring": ("linalg", "det_ring"),
    "linalg.det_unit": ("linalg", "det_unit"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "grassmann.from_gens": ("grassmann", "FramePoint.from_gens"),
    "grassmann.minor": ("grassmann", "FramePoint.minor"),
    "grassmann.plucker": ("grassmann", "FramePoint.plucker"),
    "grassmann.flow": ("grassmann", "FramePoint.flow"),
    "grassmann.orthogonal": ("grassmann", "FramePoint.orthogonal"),
    "grassmann.isotropy": ("grassmann", "FramePoint.isotropy"),
    "grassmann.is_sigma_invariant": ("grassmann",
                                     "FramePoint.is_sigma_invariant"),
    "grassmann.is_prym_flow": ("grassmann", "is_prym_flow"),
    "pfaffian.pfaffian": ("pfaffian", "pfaffian"),
    "pfaffian.section_square_check": ("pfaffian", "section_square_check"),
    "tau.plucker_support": ("tau", "plucker_support"),
    "tau.tau_function": ("tau", "tau_function"),
    "tau.tau_flow_consistency": ("tau", "tau_flow_consistency"),
    "tau.taubar": ("tau", "taubar"),
    "tau.baker": ("tau", "baker"),
    "tau.baker_residual_matrices": ("tau", "baker_residual_matrices"),
    "tau.bilinear_residues": ("tau", "bilinear_residues"),
    "hierarchy.extraction_operator": ("hierarchy", "extraction_operator"),
    "hierarchy.gr0_constraint": ("hierarchy", "gr0_constraint"),
    "hierarchy.p0_triple_constraint": ("hierarchy", "p0_triple_constraint"),
    "hierarchy.curve_constraint": ("hierarchy", "curve_constraint"),
    "hierarchy.constraint_suite": ("hierarchy", "constraint_suite"),
    "hierarchy.suite_verdict": ("hierarchy", "suite_verdict"),
    "krichever.span_closure": ("krichever", "span_closure"),
    "krichever.is_ring_point": ("krichever", "is_ring_point"),
    "krichever.p0_membership": ("krichever", "p0_membership"),
    "krichever.stabilizer": ("krichever", "stabilizer"),
    "krichever.orbit_profile": ("krichever", "orbit_profile"),
    "io.load": ("io", "load_input"),
    "cli.main": ("cli", "main"),
}


class Tracer:
    """Span stack and per-name statistics of one process."""

    def __init__(self):
        self.stack = []
        self.stats = {}     # name -> [calls, self_ns, errors]
        self.edges = {}     # "parent>child" -> calls
        self.via = {}       # "name@binding module" -> calls
        self.distinct = {}  # "name@binding module" -> distinct argument keys
        self.max_n = {}     # name -> largest matrix order seen
        self.sizes = {}     # name -> summed result lengths
        self.refusals = 0
        self.spans = []
        self.dropped = 0
        self.request = 0
        self._ids = 0
        self._seen = {}     # per-request distinct keys
        self._keep = []     # keeps keyed objects alive for the request
        self._raised = []   # exceptions already counted as refusals

    def begin(self, request):
        self.request = request
        self._seen = {}
        self._keep = []
        self._raised = []

    def end(self):
        for k, keys in self._seen.items():
            self.distinct[k] = self.distinct.get(k, 0) + len(keys)
        self._seen, self._keep, self._raised = {}, [], []

    def close(self, frame, end, exc):
        name, start, child, sid, parent = frame
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur - child
        if exc is not None:
            st[2] += 1
            if (type(exc).__name__ == "WindowTooSmall"
                    and name.startswith("grassmann.")
                    and not any(e is exc for e in self._raised)):
                self._raised.append(exc)
                self.refusals += 1
        if self.stack:
            up = self.stack[-1]
            up[2] += dur
            edge = f"{up[0]}>{name}"
            self.edges[edge] = self.edges.get(edge, 0) + 1
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.request, sid, parent, name, start, end))
        else:
            self.dropped += 1

    def key(self, label, key, *alive):
        seen = self._seen.get(label)
        if seen is None:
            seen = self._seen[label] = set()
        seen.add(key)
        self._keep.append(alive)

    def summary(self):
        return {"stats": self.stats, "edges": self.edges, "via": self.via,
                "distinct": self.distinct, "max_n": self.max_n,
                "sizes": self.sizes, "refusals": self.refusals,
                "dropped": self.dropped}

    def merge(self, other):
        """Fold a summary dict (from a forked child) into this tracer."""
        for name, (calls, self_ns, errors) in other["stats"].items():
            st = self.stats.setdefault(name, [0, 0, 0])
            st[0] += calls
            st[1] += self_ns
            st[2] += errors
        for field in ("edges", "via", "distinct", "sizes"):
            mine = getattr(self, field)
            for k, v in other[field].items():
                mine[k] = mine.get(k, 0) + v
        for k, v in other["max_n"].items():
            self.max_n[k] = max(self.max_n.get(k, 0), v)
        self.refusals += other["refusals"]
        self.dropped += other["dropped"]


ACTIVE = None  # the tracer spans go to while installed


def _hall_key(tr, label, args, result):
    tr.via[label] = tr.via.get(label, 0) + 1
    tr.key(label, (id(args[0]), id(args[1])), args[0], args[1])


def _minor_key(tr, label, args, result):
    tr.key(label, (id(args[0]), tuple(args[1])), args[0])


def _order(tr, label, args, result):
    name = label.partition("@")[0]
    tr.max_n[name] = max(tr.max_n.get(name, 0), len(args[0]))


def _size(tr, label, args, result):
    name = label.partition("@")[0]
    tr.sizes[name] = tr.sizes.get(name, 0) + len(result)


# argument keys, orders and result sizes that the per-layer ratios need
OBSERVERS = {
    "symfun.hall": _hall_key,
    "grassmann.minor": _minor_key,
    "linalg.det_ring": _order,
    "pfaffian.pfaffian": _order,
    "tau.plucker_support": _size,
}


def _wrap(fn, name, binding):
    observe = OBSERVERS.get(name)
    label = f"{name}@{binding}"

    def traced(*args, **kwargs):
        tr = ACTIVE
        if tr is None:
            return fn(*args, **kwargs)
        tr._ids += 1
        parent = tr.stack[-1][3] if tr.stack else 0
        frame = [name, 0, 0, tr._ids, parent]
        tr.stack.append(frame)
        frame[1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = perf_counter_ns()
            tr.stack.pop()
            tr.close(frame, end, exc)
            raise
        end = perf_counter_ns()
        tr.stack.pop()
        tr.close(frame, end, None)
        if observe is not None:
            observe(tr, label, args, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def _resolve(module, path):
    obj = sys.modules[f"zgrass.{module}"]
    for part in path.split("."):
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return getattr(obj, "__func__", obj)


def install(tracer):
    """Wrap every binding of every target; returns the undo list."""
    global ACTIVE
    names = {}
    for name, (module, path) in TARGETS.items():
        names[id(_resolve(module, path))] = name
    mods = [m for k, m in sorted(sys.modules.items())
            if k == "zgrass" or k.startswith("zgrass.")]
    places = []
    for mod in mods:
        places.append((mod, mod.__name__.rpartition(".")[2], vars(mod)))
        for obj in list(vars(mod).values()):
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                places.append((obj, mod.__name__.rpartition(".")[2],
                               obj.__dict__))
    undo = []
    for owner, binding, space in places:
        for attr, value in list(space.items()):
            fn = getattr(value, "__func__", value)
            name = names.get(id(fn))
            if name is None:
                continue
            wrapped = _wrap(fn, name, binding)
            if isinstance(value, classmethod):
                wrapped = classmethod(wrapped)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, value))
    ACTIVE = tracer
    return undo


def uninstall(undo):
    global ACTIVE
    ACTIVE = None
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def write_spans(tracer, path):
    with open(path, "w") as fh:
        fh.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
        for row in tracer.spans:
            fh.write("\t".join(map(str, row)) + "\n")
