"""JSON codecs for the command line tool.

Reports are spelled by one function, `to_json`.  Every rational travels as
an exact string "p/q" -- the denominator is kept even when it is 1, so
values round-trip byte-for-byte.  Laurent series are {exponent: rational}
objects, matrices and tuples are lists, a partition is its list of parts,
and a time polynomial is {"cap": weight or null, "terms": {monomial:
rational}} with monomials spelled "t1^2 s3" ("1" is the constant).
Float values are rejected everywhere on input -- the pipeline is exact end
to end and a binary float is almost always an upstream mistake.  Decimal
strings ("0.5") are fine; they parse exactly.

Input files are single JSON objects tagged by "kind":

    {"kind": "point",  "gens": [{"-1": "1", "0": "3/2"}, ...], "tail": 2,
     "window": [-8, 8]}                                  (window optional)
    {"kind": "matrix", "entries": [["0", "1"], ["-1", "0"]]}
    {"kind": "curve",  "ring_gens": [...], "module_gens": [...],
     "label": "..."}                      (module_gens and label optional)
    {"kind": "family", "flows": {"1": "a", "3": "1/2"}, "floor": -8}

A family flow value is either an exact rational or the name of a formal
coefficient family ("a" above); the name "t" is reserved for the times.
Exponent keys are spelled canonically ("1", "-2"; not "01", "+1" or "-0"),
no object repeats a key, a window lies in -64..64 (as the --window radius
does), a point's tail in 0..4096 and a series exponent in -4096..4096, a
family's floor in -48..-1, and a matrix has at most 64 rows.
"""

import json
import re
from fractions import Fraction

from .errors import ParseError
from .grassmann import FramePoint
from .krichever import CurveData
from .series import LaurentSeries
from .symfun import Partition, TimePolynomial

KINDS = ("point", "matrix", "curve", "family")

_FAMILY_RE = re.compile(r"[a-z]+\Z")


def parse_frac(value):
    """Exact rational from a JSON scalar: "p/q", "p", or an integer.  No
    exponent notation: Fraction("1e999999999") would expand the power."""
    if isinstance(value, bool):
        raise ParseError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ParseError(f"exponent notation is not accepted: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not an exact rational: {value!r}") from None
    raise ParseError(
        f"expected a rational as 'p/q' string or integer, got {value!r}"
    )


def frac_str(value):
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _int_key(key, what):
    # only the canonical spelling: "00", "+1" or "1_0" would collapse onto
    # another key of the same integer
    try:
        k = int(key)
    except (TypeError, ValueError):
        k = None
    if k is None or str(k) != key:
        raise ParseError(f"{what} must be an integer, got {key!r}")
    return k


def series_from_json(obj):
    if not isinstance(obj, dict):
        raise ParseError(f"a series is an object of exponent: value, got {obj!r}")
    coeffs = {_int_key(e, "exponent"): parse_frac(c) for e, c in obj.items()}
    if bad := [e for e in coeffs if not -4096 <= e <= 4096]:
        raise ParseError(f"exponent must be between -4096 and 4096, got {bad[0]}")
    return LaurentSeries(coeffs)


def mono_str(mono):
    """Render a TimePolynomial monomial key: "t1^2 s3"; "" is the constant."""
    return " ".join(
        f"{fam}{k}" + (f"^{m}" if m > 1 else "") for (fam, k), m in mono
    )


def to_json(value):
    """The JSON form of a report value, spelled as the module docstring
    says; dicts, lists and tuples (NamedTuples included) convert item by
    item.  Any other type raises TypeError: nothing reaches a report
    unspelled."""
    kind = type(value)
    if value is None or kind is bool or kind is int or kind is str:
        return value
    if kind is Fraction:
        return frac_str(value)
    if kind is dict:
        return {key: to_json(v) for key, v in value.items()}
    if kind is list or isinstance(value, tuple):
        return [to_json(v) for v in value]
    if kind is Partition:
        return list(value.parts)
    if kind is LaurentSeries:
        return {str(e): frac_str(c) for e, c in sorted(value.coeffs.items())}
    if kind is TimePolynomial:
        terms = {mono_str(m) or "1": frac_str(c)
                 for m, c in value.terms.items()}
        return {"cap": value.maxweight, "terms": dict(sorted(terms.items()))}
    raise TypeError(f"no JSON form for {kind.__name__}")


def matrix_from_json(rows):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError("matrix entries must be a list of rows")
    if len(rows) > 64:
        raise ParseError(f"a matrix must have 0 to 64 rows, got {len(rows)}")
    return [[parse_frac(v) for v in row] for row in rows]


def _window_from_json(obj, default):
    win = obj.get("window")
    if win is None:
        return default
    if (
        not isinstance(win, list)
        or len(win) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in win)
        or not -64 <= win[0] < win[1] <= 64
    ):
        raise ParseError("window must be [lo, hi] with -64 <= lo < hi <= 64, "
                         f"got {win!r}")
    return tuple(win)


def point_from_json(obj, window):
    gens = obj.get("gens")
    if not isinstance(gens, list):
        raise ParseError("a point file needs a list of generators under 'gens'")
    tail = obj.get("tail")
    # bounds the cost, with the exponents: at tail 4096 check, baker and
    # bilinear each take under 0.2 s, on {0: 1, 4096: 1} too (whole process,
    # one Xeon core)
    if type(tail) is not int or not 0 <= tail <= 4096:
        raise ParseError(
            f"'tail' must be an integer between 0 and 4096, got {tail!r}")
    win = _window_from_json(obj, window)
    return FramePoint.from_gens([series_from_json(g) for g in gens], tail, win)


def curve_from_json(obj, window):
    gens = obj.get("ring_gens")
    if not isinstance(gens, list) or not gens:
        raise ParseError("a curve file needs a nonempty list under 'ring_gens'")
    mods = obj.get("module_gens", [])
    if not isinstance(mods, list):
        raise ParseError("'module_gens' must be a list")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ParseError("'label' must be a string")
    data = CurveData(
        tuple(series_from_json(g) for g in gens),
        tuple(series_from_json(m) for m in mods),
        label=label,
    )
    return data, _window_from_json(obj, window)


def family_from_json(obj):
    """Flow data: {exponent: coefficient}, floor, optional base point.

    A coefficient is an exact rational or the name of a formal family; the
    base (a point object, same shape as a point file minus the kind tag)
    defaults to the vacuum.  family-square reads the flow as a time shift,
    so the floor truncates nothing: it bounds the weight."""
    flows = obj.get("flows")
    if not isinstance(flows, dict) or not flows:
        raise ParseError("a family file needs a nonempty object under 'flows'")
    out = {}
    for key, value in flows.items():
        k = _int_key(key, "flow exponent")
        if k < 1:
            raise ParseError(f"flow exponents must be positive, got {k}")
        if isinstance(value, str) and _FAMILY_RE.fullmatch(value):
            if value == "t":
                raise ParseError("family name 't' is reserved for the times")
            out[k] = value
        else:
            out[k] = parse_frac(value)
    floor = obj.get("floor", -8)
    if (not isinstance(floor, int) or isinstance(floor, bool)
            or not -48 <= floor <= -1):
        raise ParseError(
            f"'floor' must be an integer between -48 and -1, got {floor!r}")
    base = obj.get("base")
    if base is not None and not isinstance(base, dict):
        raise ParseError("'base' must be a point object")
    return out, floor, base


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r} in an object")
        obj[key] = value
    return obj


def load_input(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    # ValueError also covers bytes that are not UTF-8 and integer literals
    # past Python's digit limit; RecursionError, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict) or obj.get("kind") not in KINDS:
        raise ParseError(
            f"{path}: input must be an object with 'kind' one of {', '.join(KINDS)}"
        )
    return obj
