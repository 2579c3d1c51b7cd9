"""Constraint families cutting out the invariant loci in tau coordinates.

Every constraint is a finite multilinear functional on the coefficients of a
tau polynomial, built from one extraction shape: pair tau against the
operator sum_{beta - alpha = e} p_beta * D_{lam, alpha}, where D_{lam, alpha}
is the sum of Schur polynomials over horizontal alpha-strips of lam and one
of the two factors carries negated times.  Each such operator is homogeneous
of weight |lam| + e, so pairing extracts a single weight component of tau.

Three families:

  GR0    quadratic, indexed by two diagrams: couples extraction levels
         e and 1 - e over even e.  Zero on sign-invariant points.
  P0TRIPLE  cubic, three diagrams: levels summing to 2, the first even,
         with the negation placed on the strip factor in the first two
         slots and on the p factor in the third.
  CURVE  linear, one diagram: the diagonal level-0 extraction.  Zero on
         multiplication-closed (ring) points.

Values are exact rationals.  Every functional can be evaluated through the
orthogonality pairing of the monomial basis ("hall") or by literally
applying the operator as scaled derivatives and reading the constant term
("diff"); the two routes agree identically and serve as mutual oracles.

Each call -- a whole suite or one standalone constraint -- builds one
extraction table for its tau.  Every extraction (lam, e, negate_p) is paired
at most once and read by each constraint that needs it, so GR0, P0TRIPLE and
CURVE are sums of products of table entries.  The P0TRIPLE inner sum over e2
is kept per (lam2, lam3, level) as a convolution of two table rows, so each
triple costs one short sum over even e1.  The table fills on first use and
is dropped when the call returns; extraction_operator, like the Schur
polynomials it reads, is memoized with functools.cache for the life of the
process, and its shared values are never mutated.  Tau is read in the time
family "t"; a tau with variables of another family is refused.

For a weight-capped tau a constraint is evaluated only when every extraction
it needs lies within the cap; otherwise it raises UnsoundTruncation (the
suite runner records such entries as skipped rather than guessing).  Since
the table fills lazily, nothing beyond a sound constraint's needs is paired.
"""

from fractions import Fraction
from functools import cache
from itertools import product
from typing import NamedTuple

from .errors import UnsoundTruncation, ZgrassError
from .symfun import (
    Partition,
    TimePolynomial,
    apply_tilde,
    hall,
    partitions_upto,
    schur_p,
    strip_sum,
)

GR0 = "GR0"
P0TRIPLE = "P0TRIPLE"
CURVE = "CURVE"
FAMILIES = (GR0, P0TRIPLE, CURVE)


@cache
def extraction_operator(lam, e, negate_p=True):
    """sum over beta - alpha = e of p_beta * D_{lam, alpha}, one side negated.

    negate_p=True negates the times of the p factor, otherwise of the strip
    factor.  Homogeneous of weight |lam| + e; zero when e < -lam_1.
    """
    acc = TimePolynomial()
    for alpha in range(max(0, -e), Partition(lam).top + 1):
        # "t" stays positional: schur_p's cache keys on how a call is spelled
        p = schur_p(alpha + e, "t")
        d = strip_sum(lam, alpha)
        if negate_p:
            acc += p.negate_times() * d
        else:
            acc += p * d.negate_times()
    return acc


def _pure_family(tau):
    for m in tau.terms:
        for (f, _), _ in m:
            if f != "t":
                raise ZgrassError(
                    f"tau mixes variable families ({f!r} vs 't')")


def _check_sound(tau, needed):
    if tau.maxweight is not None and needed > tau.maxweight:
        raise UnsoundTruncation(
            f"constraint needs tau to weight {needed}, cap is {tau.maxweight}"
        )


# family -> (level total, negate_p of each diagram's slot); the arity of a
# family is its number of slots
_SHAPES = {
    GR0: (1, (True, True)),
    P0TRIPLE: (2, (False, False, True)),
    CURVE: (0, (True,)),
}


def _needed_weight(family, ds):
    """Largest tau weight any term of the constraint touches.

    Slot i extracts at weight |lam_i| + e_i, and e_i is largest when every
    other slot sits at its lowest level -top_j.
    """
    tops = sum(d.top for d in ds)
    return max(d.weight + _SHAPES[family][0] + tops - d.top for d in ds)


def suite_weight(maxsize):
    """Largest tau weight any entry of constraint_suite(tau, maxsize) reads.

    _needed_weight grows with every slot's weight and top, so each family
    peaks with the one-row diagram (maxsize) in every slot, at
    arity * maxsize + level total; P0TRIPLE's 3 * maxsize + 2 is the largest.
    """
    row = Partition((maxsize,))
    return max(_needed_weight(f, (row,) * len(_SHAPES[f][1]))
               for f in FAMILIES)


class _Table:
    """Extraction values of one tau, each paired at most once.

    values maps (diagram parts, level, negate_p) to the pairing of that
    extraction operator with tau; tails maps (family, slot, level, parts of
    the diagrams from that slot on) to the sum over the later slots, so a
    P0TRIPLE inner sum over e2 is one convolution per (lam2, lam3, level).
    Both fill on first use, so a capped tau is never paired beyond what a
    sound constraint asks for.
    """

    def __init__(self, tau, route):
        if route not in ("hall", "diff"):
            raise ZgrassError(f"unknown evaluation route {route!r}")
        _pure_family(tau)
        self.tau = tau
        self.route = route
        self.values = {}
        self.tails = {}

    def extract(self, parts, e, negate_p):
        key = (parts, e, negate_p)
        v = self.values.get(key)
        if v is None:
            op = extraction_operator(parts, e, negate_p)
            if not op:
                v = Fraction(0)
            elif self.route == "hall":
                v = hall(op, self.tau)
            else:
                v = apply_tilde(op, self.tau).constant_term()
            self.values[key] = v
        return v


def _evaluate(family, ds, table, k=0, rest=None):
    """Sum of the slot products over the levels of slots k.. that add up to
    rest, by default the family's level total; ds lie within tau's cap.

    Slot k runs over [-top_k, rest plus the later slots' tops], outside of
    which some factor vanishes identically; the first slot's level is even
    and the last slot takes the remaining level.  A zero factor skips every
    deeper slot.  The sums over the slots after the first are kept in
    table.tails, so each is formed once per call.
    """
    negate = _SHAPES[family][1]
    if rest is None:
        rest = _SHAPES[family][0]
    d = ds[k]
    if k == len(ds) - 1:
        return table.extract(d.parts, rest, negate[k])
    if k:
        key = (family, k, rest) + tuple(x.parts for x in ds[k:])
        out = table.tails.get(key)
        if out is not None:
            return out
    lo = -d.top
    step = 1
    if k == 0:
        lo += lo % 2
        step = 2
    out = Fraction(0)
    for e in range(lo, rest + sum(x.top for x in ds[k + 1:]) + 1, step):
        x = table.extract(d.parts, e, negate[k])
        if x:
            out += x * _evaluate(family, ds, table, k + 1, rest - e)
    if k:
        table.tails[key] = out
    return out


def _constraint(family, lams, tau, route):
    table = _Table(tau, route)
    ds = [Partition(lam) for lam in lams]
    _check_sound(tau, _needed_weight(family, ds))
    return _evaluate(family, ds, table)


def gr0_constraint(lam1, lam2, tau, route="hall"):
    """Quadratic constraint of the pair of diagrams on tau.

    Sum over even e of extraction(lam1, e) * extraction(lam2, 1 - e) with
    the p factors negated; e ranges over [-lam1_1, 1 + lam2_1], outside of
    which one factor vanishes identically.
    """
    return _constraint(GR0, (lam1, lam2), tau, route)


def p0_triple_constraint(lam1, lam2, lam3, tau, route="hall"):
    """Cubic constraint of the diagram triple on tau.

    Sum over level triples (e1, e2, e3) with e1 + e2 + e3 = 2 and e1 even.
    The first two slots negate the strip factor and the third negates the p
    factor.
    """
    return _constraint(P0TRIPLE, (lam1, lam2, lam3), tau, route)


def curve_constraint(lam, tau, route="hall"):
    """Linear constraint of one diagram: the diagonal level-0 extraction.

    Zero for every diagram exactly when the point's subspace is closed under
    multiplication by its own ring of functions.
    """
    return _constraint(CURVE, (lam,), tau, route)


class SuiteEntry(NamedTuple):
    # the field names are the keys of each `zgrass hierarchy` suite entry
    family: str
    diagrams: tuple
    value: Fraction | None
    needed: int
    status: str  # "zero" | "nonzero" | "unsound"


def constraint_suite(tau, maxsize, route="hall"):
    """Evaluate every constraint with diagrams of weight at most maxsize.

    Entries come back in canonical order: family (GR0, P0TRIPLE, CURVE),
    then diagrams ascending in the (weight, lex) partition order.  Capped
    tau values yield "unsound" entries for constraints needing more weight
    than the cap; values are never approximated.
    """
    lams = partitions_upto(maxsize)
    table = _Table(tau, route)
    out = []
    for family in FAMILIES:
        arity = len(_SHAPES[family][1])
        for diagrams in product(lams, repeat=arity):
            needed = _needed_weight(family, diagrams)
            if tau.maxweight is not None and needed > tau.maxweight:
                v = None
            else:
                v = _evaluate(family, diagrams, table)
            status = ("unsound" if v is None
                      else "zero" if v == 0 else "nonzero")
            out.append(SuiteEntry(family, diagrams, v, needed, status))
    return out


def suite_verdict(entries):
    """Per-family summary: 'pass', 'fail', or 'skipped' plus counts."""
    out = {}
    for fam_tag in FAMILIES:
        rows = [x for x in entries if x.family == fam_tag]
        if not rows:
            continue
        bad = [x for x in rows if x.status == "nonzero"]
        skipped = [x for x in rows if x.status == "unsound"]
        verdict = "fail" if bad else ("pass" if len(skipped) < len(rows)
                                      else "skipped")
        out[fam_tag] = {
            "verdict": verdict,
            "checked": len(rows) - len(skipped),
            "skipped": len(skipped),
            "failures": [(x.diagrams, x.value) for x in bad[:5]],
        }
    return out
