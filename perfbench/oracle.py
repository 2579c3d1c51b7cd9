"""Arithmetic for the answer checks that does not go through zgrass.

Everything here works on plain Python data -- exponent sets, dicts of
Fractions, JSON report trees -- so a check can disagree with the library
instead of repeating it.  Two checks in workloads.py use library code on
purpose, each a second route that the timed request does not take: the
flowed vacuum minor against `tau` (compared here with `capped_equal`) and
the diff route against suite entries.
"""

from fractions import Fraction
from math import factorial


def frac(s):
    """Parse a report value: "p/q" strings and integers."""
    return Fraction(s)


# -- numerical semigroups and monomial spans ----------------------------------


def semigroup(gens, bound=200):
    """(elements below bound, gaps, conductor) of the semigroup <gens>."""
    elems = {0}
    for n in range(1, bound):
        if any(n - g in elems for g in gens if n >= g):
            elems.add(n)
    gaps = [n for n in range(bound) if n not in elems]
    return elems, gaps, (gaps[-1] + 1 if gaps else 0)


def module_orders(ring_gens, module_gens=(0,), bound=200):
    """Pole orders of span{z^-m * z^-s}: the set M + S, cut at bound."""
    elems, _, _ = semigroup(ring_gens, bound)
    return {m + s for m in module_gens for s in elems if m + s < bound}


def orders_conductor(orders, bound=200):
    return max((n + 1 for n in range(bound) if n not in orders), default=0)


def orders_charge(orders, bound=200):
    """Index of span{z^-t : t in T} against z^-1 k[z^-1]."""
    return (1 if 0 in orders else 0) - sum(
        1 for j in range(1, bound) if j not in orders)


def orders_ring(orders, bound=200):
    cut = bound // 2
    return 0 in orders and all(
        a + b in orders for a in orders if a < cut for b in orders if b < cut)


def multiplier_gaps(orders, bound=200):
    """Gap count of {a >= 0 : a + T inside T}, the pole semigroup of the
    stabilizer ring; the orbit profile of the span settles there."""
    cut = bound // 2
    mult = [a for a in range(cut)
            if all(a + t in orders for t in orders if t < cut)]
    return sum(1 for a in range(orders_conductor(set(mult), cut)) if a not in mult)


def stabilizer_keeps_orders(basis, orders, bound=200):
    """Every stabilizer element f maps every row z^-t of the span into it."""
    cond = orders_conductor(orders, bound)
    for f in basis:
        if not f:
            return False
        for t in orders:
            if t >= cond:
                continue
            if any(t - e not in orders and t - e < cond for e in f):
                return False
    return True


# -- echelon spans of explicit generators -------------------------------------


class Span:
    """span(gens) + span{z^-j : j > tail}, by elimination on dicts."""

    def __init__(self, gens, tail):
        self.tail = tail
        self.basis = {}  # pivot exponent -> row with coefficient 1 there
        for g in gens:
            r = self._reduce(g)
            if r:
                p = min(r)
                c = r[p]
                self.basis[p] = {e: v / c for e, v in r.items()}

    def _reduce(self, f):
        r = {e: Fraction(v) for e, v in f.items()
             if e >= -self.tail and v}
        for p in sorted(self.basis):
            c = r.get(p)
            if c:
                for e, v in self.basis[p].items():
                    w = r.get(e, 0) - c * v
                    if w:
                        r[e] = w
                    else:
                        r.pop(e, None)
        return r

    def contains(self, f):
        return not self._reduce(f)

    @property
    def charge(self):
        return len(self.basis) - self.tail

    def sigma_invariant(self):
        return all(
            self.contains({e: -v if e % 2 else v for e, v in b.items()})
            for b in self.basis.values())

    def keeps(self, f):
        """Whether f * row stays inside for every basis row."""
        for b in self.basis.values():
            prod = {}
            for e1, v1 in f.items():
                for e2, v2 in b.items():
                    prod[e1 + e2] = prod.get(e1 + e2, 0) + v1 * v2
            if not self.contains(prod):
                return False
        return True


# -- determinants ---------------------------------------------------------------


def det_bareiss(rows):
    """Fraction-free elimination over the integers (Bareiss 1968)."""
    a = [[int(x) for x in r] for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


# -- time polynomials as report dicts -------------------------------------------


def mono_parse(s):
    """"t1^2 s3" -> {("t", 1): 2, ("s", 3): 1}; "1" is the constant."""
    out = {}
    if s == "1":
        return out
    for tok in s.split():
        name, _, mult = tok.partition("^")
        i = next(k for k, ch in enumerate(name) if ch.isdigit())
        out[(name[:i], int(name[i:]))] = int(mult or 1)
    return out


def mono_key(d):
    return tuple(sorted((v, m) for v, m in d.items() if m))


def mono_text(key):
    if not key:
        return "1"
    return " ".join(f"{f}{k}" + (f"^{m}" if m > 1 else "") for (f, k), m in key)


def mono_weight(key):
    return sum(k * m for (_, k), m in key)


def poly_from_report(obj):
    return {mono_key(mono_parse(m)): frac(c) for m, c in obj["terms"].items()}


def poly_mul(a, b, cap):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            d = dict(m1)
            for v, k in m2:
                d[v] = d.get(v, 0) + k
            key = mono_key(d)
            if mono_weight(key) <= cap:
                out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def schur_p_terms(n, fam="t"):
    """p_n = [z^n] exp(sum_k t_k z^k) = sum over partitions of n of
    prod_k t_k^m_k / m_k!, as {monomial text: "p/q"}."""
    out = {}

    def rec(rest, top, mults):
        if rest == 0:
            c = Fraction(1)
            for m in mults.values():
                c /= factorial(m)
            out[mono_text(mono_key({(fam, k): m for k, m in mults.items()}))] = (
                f"{c.numerator}/{c.denominator}")
            return
        for k in range(min(rest, top), 0, -1):
            m = dict(mults)
            m[k] = m.get(k, 0) + 1
            rec(rest - k, k, m)

    rec(n, n, {})
    return dict(sorted(out.items()))


def capped_equal(reported, value, cap):
    """Compare a reported polynomial with a library value through the cap.

    The value may be a Fraction (an identically constant minor) or a
    polynomial carrying its own cap; both sides are cut at `cap` first, so
    an empty polynomial and a zero constant compare equal.
    """
    mine = {m: c for m, c in poly_from_report(reported).items()
            if mono_weight(m) <= cap}
    if isinstance(value, Fraction):
        theirs = {(): value} if value else {}
    else:
        theirs = {mono_key(dict(m)): c for m, c in value.terms.items()
                  if mono_weight(m) <= cap}
    return mine == theirs


def odd_restriction(poly, fam="t"):
    return {m: c for m, c in poly.items()
            if all(f != fam or k % 2 for (f, k), _ in m)}
