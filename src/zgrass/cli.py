"""Command line front end: `zgrass COMMAND FILE [options]`.

`zgrass -h` lists the commands (`_COMMANDS`), and `zgrass COMMAND -h` the
options each reads (`_OPTIONS`).  Input files are JSON objects tagged by
"kind" (see the io module).  Commands put library values into their reports,
and io.to_json spells them: deterministic JSON on stdout or --out FILE; exit
status 0 exactly when every asserted check passes.
--strict also fails checks that were skipped for honest reasons
(truncation too tight, a profile that has not settled).
"""

import json
import sys
from types import SimpleNamespace

from . import __version__
from .errors import OddParity, ParseError, WindowTooSmall, ZgrassError
from .grassmann import DEFAULT_WINDOW, FramePoint
from .hierarchy import constraint_suite, suite_verdict, suite_weight
from .io import (
    curve_from_json,
    family_from_json,
    frac_str,
    load_input,
    matrix_from_json,
    point_from_json,
    to_json,
)
from .krichever import UNCERTIFIED, orbit_profile, p0_membership, span_closure
from .linalg import det_field
from .pfaffian import pfaffian, section_square_check
from .tau import (
    baker,
    baker_residual_matrices,
    bilinear_residues,
    odd_part,
    tau_function,
    tau_flow_consistency,
    taubar,
    time_shift,
)


def _check(name, passed, detail=""):
    return {"name": name, "status": "pass" if passed else "fail",
            "detail": detail}


def _skip(name, detail):
    return {"name": name, "status": "skipped", "detail": detail}


def _win(args):
    return (-args.window, args.window)


# -- command bodies ------------------------------------------------------------


def _point_report(u):
    return {
        "charge": u.charge,
        "exact": u.exact,
        "pivots": list(u.pivots),
        "rows": len(u.rows),
        "tail": u.tail_j,
        "window": list(u.window),
    }


def cmd_check(obj, args):
    checks = []
    if obj["kind"] == "point":
        u = point_from_json(obj, _win(args))
        rep = {"kind": "point", **_point_report(u)}
        dual = u.orthogonal()
        checks.append(_check(
            "dual-charge", dual.charge == -u.charge,
            f"complement charge {dual.charge} against {-u.charge}"))
        checks.append(_check(
            "biduality", dual.orthogonal().same_subspace(u),
            "complement of the complement returns the point"))
        rep["sigma_invariant"] = u.is_sigma_invariant()
        if u.charge == 0:
            iso = u.isotropy()
            rep["isotropic"] = iso.isotropic
            rep["parity"] = iso.parity
            if iso.witness is not None:
                rep["witness"] = iso.witness
        return rep, checks

    data, win = curve_from_json(obj, _win(args))
    rep = {"kind": "curve", "label": data.label, "window": list(win)}
    try:
        u = span_closure(data, win)
    except WindowTooSmall as exc:
        if str(exc) != UNCERTIFIED:
            raise
        return rep, [_skip("closure-certified", UNCERTIFIED)]
    prym = p0_membership(u)
    rep.update(_point_report(u), ring=prym.ring, prym=prym._asdict())
    checks.append(_check("closure-certified", True,
                         "monomial tail certified inside the window"))
    if not data.module_gens:
        checks.append(_check(
            "ring-closed", prym.ring,
            "span of the ring generators is multiplicatively closed"))
    return rep, checks


def cmd_tau(obj, args):
    u = point_from_json(obj, DEFAULT_WINDOW)
    weight = args.weight
    tau = tau_function(u, weight)
    rep = {"charge": u.charge, "tau": tau}
    probe = min(weight, 4)
    # tau - moved is known through the lower cap, the probe, and vanishes
    # there exactly when the flowed minor matches tau
    moved = tau_flow_consistency(u, probe)
    checks = [_check(
        "flow-consistency", not tau - moved,
        f"leading minor along the universal flow, weight {probe}")]
    return rep, checks


def cmd_baker(obj, args):
    u = point_from_json(obj, DEFAULT_WINDOW)
    pairs = baker(u, args.weight)
    first, _ = baker_residual_matrices(u)
    rep = {"charge": u.charge,
           "blocks": [{"row": r, "block": b} for r, b in pairs]}
    flat = [v for row in first for v in row]
    checks = [_check("duality-residues", not any(flat),
                     "pairings against the complement basis all vanish")]
    return rep, checks


def cmd_bilinear(obj, args):
    u = point_from_json(obj, DEFAULT_WINDOW)
    n = len(u.rows) + 2
    # one pass: the n-sized matrices are the leading blocks of the larger
    matrices = baker_residual_matrices(u, max(args.weight, n))
    r1, r2 = bilinear_residues(matrices, args.weight)
    first, second = ([row[:n] for row in m[:n]] for m in matrices)
    inv = u.is_sigma_invariant()
    rep = {"first_residual": r1, "second_residual": r2,
           "second_matrix": second, "sigma_invariant": inv}
    flat1 = [v for row in first for v in row]
    flat2 = [v for row in second for v in row]
    # entry (i, j) pairs p_{i+1}(t) with p_{j+1}(s): it sits at weight i+j+2
    low = min((i + j + 2 for i, row in enumerate(second)
               for j, v in enumerate(row) if v), default=None)
    sign = "sign-residues-match-invariance"
    where = (f"lies above the {n} x {n} block and" if low is None
             else f"sits at weight {low},")
    checks = [
        _check("duality-residues", not r1 and not any(flat1),
               "first residual vanishes in both forms"),
        _skip(sign, f"the sign obstruction {where} above --weight "
              f"{args.weight}")
        if not (inv or r2) and (low is None or low > args.weight) else
        _check(sign, (not r2) == inv and (not any(flat2)) == inv,
               "second residual vanishes exactly for sign-invariant points"),
    ]
    return rep, checks


def cmd_hierarchy(obj, args):
    u = point_from_json(obj, DEFAULT_WINDOW)
    tau = tau_function(u, suite_weight(args.maxsize))
    entries = constraint_suite(tau, args.maxsize)
    verdicts = suite_verdict(entries)
    rep = {"suite": [e._asdict() for e in entries], "verdicts": verdicts}
    checks = []
    for fam, v in verdicts.items():
        if v["verdict"] == "skipped":
            checks.append(_skip(f"suite-{fam}",
                                "every constraint outran the cap"))
        else:
            checks.append(_check(
                f"suite-{fam}", v["verdict"] == "pass",
                f"{v['checked']} constraints checked, "
                f"{len(v['failures'])} shown of any failures"))
    return rep, checks


def cmd_orbit(obj, args):
    if obj["kind"] == "curve":
        data, win = curve_from_json(obj, _win(args))
        u = span_closure(data, win)
    else:
        u = point_from_json(obj, _win(args))
    prof = orbit_profile(u, nmax=args.nmax, odd_only=args.odd)
    rep = {**prof._asdict(), "odd_only": args.odd}
    if prof.verdict == "stable":
        checks = [_check("profile-stabilized", True,
                         f"dimension settles at {prof.value}")]
    else:
        checks = [_skip("profile-stabilized",
                        "profile still moving at nmax; raise --nmax")]
    return rep, checks


def cmd_pfaffian(obj, args):
    m = matrix_from_json(obj.get("entries"))
    pf = pfaffian(m)
    d = det_field(m)
    rep = {"determinant": d, "pfaffian": pf, "size": len(m)}
    checks = [_check("pfaffian-squares-to-determinant", pf * pf == d,
                     f"({frac_str(pf)})^2 against {frac_str(d)}")]
    return rep, checks


def cmd_family_square(obj, args):
    flows, floor, base = family_from_json(obj)
    weight = args.weight
    start = (FramePoint.vacuum() if base is None
             else point_from_json(base, DEFAULT_WINDOW))
    if weight > -floor:
        raise WindowTooSmall(f"--weight {weight} is above -floor {-floor}")
    # the section reads the base tau over plucker_support's whole box: with
    # the shift, 2.5 s at box weight 24 and 16 s at 32 (one Xeon core)
    box = len(start.rows) * (
        max((r.top for r in start.rows), default=0) + 1 - start.charge)
    if box > 24:
        raise ParseError(f"base tau box weight {box} is above the bound 24")
    tau, pi0 = time_shift(tau_function(start), flows, weight)
    sq = section_square_check(pi0)
    rep = {
        "flows": {str(k): c for k, c in sorted(flows.items())},
        "floor": floor,
        "section": pi0,
        "section_square": {"ok": sq.ok, "scale": sq.scale},
        "tau": tau,
    }
    # g(z) g(-z) = exp(2 sum of the even c_k z^-k)
    checks = [_check("prym-flow", all(k % 2 or not c for k, c in
                                      flows.items()),
                     "flow times its sign image is the identity")]
    if base is None:
        # the vacuum's tau is 1, so its section is 1 at every c
        checks.append(_check("square-section", pi0 == 1,
                             "leading minor is exactly 1 on the base orbit"))
    else:
        checks.append(_check(
            "square-section", sq.ok,
            "leading minor factors as scale times an exact square")
            if sq.ok else
            _skip("square-section",
                  "leading minor is not an exact polynomial square; "
                  "the square structure lives at series level"))
    try:
        nf = taubar(tau, weight)
    except OddParity as exc:
        # odd flows keep the base's isotropy and parity, so they name the cause
        iso = start.isotropy() if start.charge == 0 else None
        if iso is None or not iso.isotropic:
            rep["diagnostic"] = cause = str(exc)
        elif iso.parity:
            rep["diagnostic"] = f"odd parity: {exc}"
            cause = f"{exc} (odd parity)"
        else:
            rep["diagnostic"] = cause = f"{exc} of a parity-0 point"
        checks.append(_skip("square-root-roundtrip",
                            f"{cause}; no square-root normal form exists"))
        return rep, checks
    # the difference is known through the weight, so the root is squared
    # only that far
    root = nf.root.with_cap(weight)
    diff = root * root * nf.scale - odd_part(tau)
    rep["root"] = nf.root
    rep["scale"] = nf.scale
    checks.append(_check(
        "square-root-roundtrip", not diff,
        f"scale * root^2 returns the odd restriction through "
        f"weight {weight}"))
    return rep, checks


# -- driver --------------------------------------------------------------------

# name -> (handler, input kinds, summary, options read besides --strict and
# --out, in usage order)
_COMMANDS = {
    "check": (cmd_check, ("point", "curve"),
              "structural invariants of a point or curve span", ("window",)),
    "tau": (cmd_tau, ("point",), "tau polynomial of a point", ("weight",)),
    "baker": (cmd_baker, ("point",), "Baker series blocks of a point",
              ("weight",)),
    "bilinear": (cmd_bilinear, ("point",), "bilinear residuals of a point",
                 ("weight",)),
    "hierarchy": (cmd_hierarchy, ("point",), "constraint suite of a point",
                  ("maxsize",)),
    "orbit": (cmd_orbit, ("point", "curve"),
              "flow-orbit profile of a point or curve span",
              ("window", "nmax", "odd")),
    "pfaffian": (cmd_pfaffian, ("matrix",),
                 "Pfaffian of an alternating matrix", ()),
    "family-square": (cmd_family_square, ("family",),
                      "flow a family out of the vacuum and take the "
                      "square-root normal form", ("weight",)),
}


# option -> (default, range, metavar, help); a flag has no metavar.  Ranges are
# checked in this order.  They bound every request's cost, which grows
# steeply past them (one Xeon core): bilinear on the 3-row point takes 2 s
# at weight 24 and 18 s at 32; each maxsize step costs about four times the
# last, seconds and megabytes at 6; orbit at nmax 64 takes 1.8 s on a 4-row
# big-cell point and 3.1 s on an 8-row one; the window bounds curve spans
# alone: orbit on the ring of z^-1..z^-4 takes 0.55 s at radius 64, its span
# 6.8 s at 128 (io bounds file windows alike)
_OPTIONS = {
    "weight": (8, (0, 24), "W", "weight bound for series and polynomials"),
    "maxsize": (4, (0, 6), "N", "largest diagram weight in the suite"),
    "nmax": (12, (1, 64), "N", "flow truncation order for the profile"),
    "window": (32, (1, 64), "R",
               "exponent radius when the file sets no window"),
    "odd": (False, None, None, "restrict to odd-index flows"),
    "strict": (False, None, None, "treat skipped checks as failures"),
    "out": (None, None, "FILE", "write the report here instead of stdout"),
    "help": (None, None, None, "show this help and exit"),
    "version": (None, None, None, "show the version and exit"),
}


def _check_ranges(args):
    for key, (_, bounds, _, _) in _OPTIONS.items():
        v = getattr(args, key, None)
        if bounds and v is not None and not bounds[0] <= v <= bounds[1]:
            lo, hi = bounds
            raise ParseError(f"--{key} must be between {lo} and {hi}, got {v}")


def _names(cmd):
    """The options of a command, or of the top level when cmd is None."""
    return ("help", *_COMMANDS[cmd][3], "strict", "out") if cmd else (
        "help", "version")


def _fail(cmd, error):
    """The usage and the error on stderr, exit 2, as argparse reports them."""
    sys.stderr.write(f"usage: zgrass {cmd or 'COMMAND'} FILE [options]\n"
                     f"zgrass{' ' + cmd if cmd else ''}: error: {error}\n")
    raise SystemExit(2)


def _help(cmd):
    """The help of a command, or of the top level when cmd is None."""
    rows = [("file", "JSON input file")] if cmd else [
        (name, spec[2]) for name, spec in _COMMANDS.items()]
    for key in _names(cmd):
        default, bounds, metavar, text = _OPTIONS[key]
        if bounds:
            text += f", {bounds[0]} to {bounds[1]} (default {default})"
        left = f"--{key} {metavar}" if metavar else f"--{key}"
        rows.append(("-h, --help" if key == "help" else left, text))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([
        f"usage: zgrass {cmd or 'COMMAND'} FILE [options]", "",
        _COMMANDS[cmd][2] if cmd else
        "exact computations on finite-window Laurent frames", "",
        *(f"  {left:{width}}{text}" for left, text in rows)]) + "\n"


def _is_option(arg):
    # as argparse: "-" alone and negative numbers ("-1", "-.5") are values
    return arg[:1] == "-" != arg and not arg[1:].replace(".", "", 1).isdigit()


def _read_argv(argv):
    """The command, file and options of `zgrass COMMAND FILE [options]`,
    read off the tables above as argparse would: `--key V` or `--key=V`, a
    unique prefix of an option, `--` before values, the last of a repeat."""
    cmd = file = None
    values, extras, ended, rest = {}, [], False, iter(argv)
    for arg in rest:
        if ended or not _is_option(arg):
            if cmd is None:
                if arg not in _COMMANDS:
                    _fail(None, f"argument command: invalid choice: {arg!r} "
                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
                cmd, values = arg, {k: _OPTIONS[k][0] for k in _names(arg)[1:]}
            elif file is None:
                file = arg
            else:
                extras.append(arg)
            continue
        if arg == "--":
            ended = True
            continue
        name, eq, value = arg.partition("=")
        name = "--help" if name == "-h" else name
        hits = [k for k in _names(cmd)
                if name[:2] == "--" and k.startswith(name[2:])]
        if len(hits) > 1:
            _fail(cmd, f"ambiguous option: {arg} could match "
                  f"{', '.join('--' + k for k in hits)}")
        if not hits:
            extras.append(arg)
            continue
        key = hits[0]
        _, bounds, metavar, _ = _OPTIONS[key]
        if eq and not metavar:
            _fail(cmd, f"argument --{key}: ignored explicit argument {value!r}")
        if key in ("help", "version"):
            sys.stdout.write(_help(cmd) if key == "help"
                             else f"zgrass {__version__}\n")
            raise SystemExit(0)
        if metavar and not eq and _is_option(value := next(rest, "--")):
            _fail(cmd, f"argument --{key}: expected one argument")
        try:
            values[key] = (int(value) if bounds else value) if metavar else True
        except ValueError:
            _fail(cmd, f"argument --{key}: invalid int value: {value!r}")
    if cmd is None or file is None:
        _fail(cmd, "the following arguments are required: "
              + ("file" if cmd else "command"))
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=cmd, file=file, **values)


def _emit(payload, args, code):
    """Write the report spelled by io.to_json; the exit code, or 2 when
    --out cannot be written."""
    text = json.dumps(to_json(payload), indent=2, sort_keys=True) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"zgrass {args.command}: error: cannot write --out "
                         f"{args.out}: {exc}\n")
        return 2
    return code


def main(argv=None):
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    handler, kinds, _, options = _COMMANDS[args.command]
    config = {key: getattr(args, key) for key in options + ("strict",)}
    base = {"command": args.command, "config": config,
            "tool": "zgrass", "version": __version__}
    try:
        _check_ranges(args)
        obj = load_input(args.file)
        if obj["kind"] not in kinds:
            raise ParseError(
                f"'{args.command}' expects {' or '.join(kinds)} input, "
                f"got '{obj['kind']}'")
        report, checks = handler(obj, args)
    except OSError as exc:
        return _emit({**base, "error": str(exc)}, args, 2)
    except ZgrassError as exc:
        return _emit({**base, "error": f"{type(exc).__name__}: {exc}"},
                     args, 2)
    ok = all(
        c["status"] == "pass"
        or (c["status"] == "skipped" and not args.strict)
        for c in checks
    )
    return _emit({**base, "checks": checks, "ok": ok, "report": report},
                 args, 0 if ok else 1)


if __name__ == "__main__":
    sys.exit(main())
