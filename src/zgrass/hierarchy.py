"""Constraint families in tau coordinates, meant to cut out invariant loci.

Every constraint is a finite multilinear functional on the coefficients of a
tau polynomial, built from one extraction shape: pair tau against the
operator sum_{beta - alpha = e} p_beta * D_{lam, alpha}, where D_{lam, alpha}
is the sum of Schur polynomials over horizontal alpha-strips of lam and one
of the two factors carries negated times.  Each such operator is homogeneous
of weight |lam| + e, so pairing extracts a single weight component of tau.

Three families:

  GR0    quadratic, indexed by two diagrams: couples extraction levels
         e and 1 - e over even e.  Stated to vanish on sign-invariant
         points.
  P0TRIPLE  cubic, three diagrams: levels summing to 2, the first even,
         with the negation placed on the strip factor in the first two
         slots and on the p factor in the third.
  CURVE  linear, one diagram: the diagonal level-0 extraction.  Stated to
         vanish on multiplication-closed (ring) points.

The <3,4,5> semigroup point (window +-24, tau = t1^2/2 + t2) is a
sign-invariant ring point, yet GR0((1,1),(1)) = 1 and CURVE((1,1)) = -1 on
both routes, so it contradicts both stated loci.  Which side is wrong is
open: see "The hierarchy families against the loci they claim" in ROADMAP.md.

Values are exact rationals, through the orthogonality pairing of the
monomial basis ("hall") or by applying the operator as scaled derivatives
and reading the constant term ("diff"); the two routes agree identically
and serve as mutual oracles.

Each call -- a whole suite or one standalone constraint -- reads tau through
one row reader (_rows), which pairs an extraction at most once and only at
a weight tau has, and evaluates through one sweep (_values) that adds the
rows' integer numerators and builds one Fraction per nonzero value.  The
rows are dropped when the call returns; extraction_operator, like the Schur
polynomials it reads, is memoized with functools.cache for the life of the
process, and its shared values are never mutated.  Tau is read in the time
family "t"; a tau with variables of another family is refused.

For a weight-capped tau the sweep decides each entry: it has a value only
when every extraction it needs lies within the cap, and an unsound entry
reads no row (a standalone constraint raises UnsoundTruncation; the suite
records the entry as unsound, with no value, rather than guessing).  Tau has
no terms past its cap, so no row is paired beyond it.
"""

from fractions import Fraction
from functools import cache
from itertools import compress, groupby, islice, product
from math import lcm
from operator import attrgetter
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
_ZERO = Fraction(0)


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


# family -> (level total, negate_p of each diagram's slot); the arity of a
# family is its number of slots
_SHAPES = {
    GR0: (1, (True, True)),
    P0TRIPLE: (2, (False, False, True)),
    CURVE: (0, (True,)),
}


def suite_weight(maxsize):
    """Largest tau weight any entry of constraint_suite(tau, maxsize) reads.

    An entry's needed weight grows with every slot's weight and top, so each
    family peaks with the one-row diagram (maxsize) in every slot, at
    total + arity * maxsize; P0TRIPLE's 3 * maxsize + 2 is the largest.
    """
    return max(total + len(negate) * maxsize
               for total, negate in _SHAPES.values())


def _rows(tau, route, reach):
    """row(d, negate_p) -> (den, {level e: pairing * den != 0}) over the
    levels -top..reach whose weight |lam| + e tau has, filled on first use;
    den is the lcm of their denominators.  The route and tau's variable
    family are checked before any pairing."""
    if route not in ("hall", "diff"):
        raise ZgrassError(f"unknown evaluation route {route!r}")
    for m in tau.terms:
        for (f, _), _ in m:
            if f != "t":
                raise ZgrassError(
                    f"tau mixes variable families ({f!r} vs 't')")
    weights = {sum(k * n for (_, k), n in m) for m in tau.terms}
    rows = {}

    def row(d, negate_p):
        out = rows.get((d.parts, negate_p))
        if out is None:
            vals = {}
            for e in range(-d.top, reach + 1):
                if d.weight + e not in weights:
                    continue
                op = extraction_operator(d.parts, e, negate_p)
                v = op and (hall(op, tau) if route == "hall" else
                            apply_tilde(op, tau).constant_term())
                if v:
                    vals[e] = v
            den = lcm(*(v.denominator for v in vals.values()))
            out = rows[d.parts, negate_p] = (den, {
                e: v.numerator * den // v.denominator
                for e, v in vals.items()})
        return out

    return row


def _values(family, slots, row, cap):
    """(diagrams, value, needed) over product(*slots), in that order.

    needed = total + sum of the tops + max over i of (|lam_i| - top_i), as
    slot i extracts at weight |lam_i| + e_i and e_i is at most the total
    plus the other slots' tops.  Past the cap the value is None and reads no
    row; otherwise it is the sum over the first diagram's even levels e of
    its row times the later slots' convolution at total - e.  A row or a
    convolution is read at the first sound entry that needs it.  The sum
    runs on integer numerators over the rows' denominators d0 * dc:
    a nonzero value is one Fraction of it, a zero one the shared _ZERO.
    """
    total, negate = _SHAPES[family]

    def convolve(ds):
        den, out = 1, {0: 1}
        for d, n in zip(ds, negate[1:]):
            rd, r = row(d, n)
            den *= rd
            nxt = {}
            for a, x in out.items():
                for b, y in r.items():
                    nxt[a + b] = nxt.get(a + b, 0) + x * y
            out = nxt
        return den, out

    # weight >= top, so 0 stands in for the max over no later slot
    rest = [(ds, total + sum([d.top for d in ds]),
             max([d.weight - d.top for d in ds], default=0))
            for ds in product(*slots[1:])]
    convs = {}
    for d in slots[0]:
        evens = None
        for i, (ds, base, excess) in enumerate(rest):
            needed = base + d.top + max(d.weight - d.top, excess)
            if cap is not None and needed > cap:
                yield (d, *ds), None, needed
                continue
            if evens is None:
                d0, r0 = row(d, negate[0])
                evens = [(total - e, x) for e, x in r0.items() if e % 2 == 0]
            if evens and i not in convs:
                convs[i] = convolve(ds)
            dc, c = convs.get(i, (1, {}))
            s = sum([x * c[k] for k, x in evens if k in c])
            yield (d, *ds), Fraction(s, d0 * dc) if s else _ZERO, needed


def _constraint(family, lams, tau, route):
    # slot i's level is at most the level total plus the other slots' tops
    ds = [Partition(lam) for lam in lams]
    tops = [d.top for d in ds]
    row = _rows(tau, route, _SHAPES[family][0] + sum(tops) - min(tops))
    _, v, needed = next(_values(family, [[d] for d in ds], row, tau.maxweight))
    if v is None:
        raise UnsoundTruncation(
            f"constraint needs tau to weight {needed}, cap is {tau.maxweight}")
    return v


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

    Stated to vanish for every diagram exactly on the points whose subspace
    is closed under multiplication by its own ring of functions; the ring
    point <3,4,5> contradicts this (module docstring).
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
    # levels reach the total plus the other slots' tops: suite_weight - maxsize
    row = _rows(tau, route, suite_weight(maxsize) - maxsize)
    out = []
    for family in FAMILIES:
        slots = [lams] * len(_SHAPES[family][1])
        for diagrams, v, needed in _values(family, slots, row,
                                           tau.maxweight):
            status = ("unsound" if v is None
                      else "nonzero" if v else "zero")
            out.append(SuiteEntry(family, diagrams, v, needed, status))
    return out


def suite_verdict(entries):
    """Per-family summary: 'pass', 'fail', or 'skipped' plus counts."""
    by_family = {}
    for fam_tag, run in groupby(entries, attrgetter("family")):
        by_family.setdefault(fam_tag, []).extend(run)
    out = {}
    for fam_tag in FAMILIES:
        rows = by_family.get(fam_tag)
        if not rows:
            continue
        status = [x.status for x in rows]
        skipped = status.count("unsound")
        bad = list(islice(compress(rows, map("nonzero".__eq__, status)), 5))
        verdict = "fail" if bad else ("pass" if skipped < len(rows)
                                      else "skipped")
        out[fam_tag] = {
            "verdict": verdict,
            "checked": len(rows) - skipped,
            "skipped": skipped,
            "failures": [(x.diagrams, x.value) for x in bad],
        }
    return out
