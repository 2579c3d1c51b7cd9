"""Partitions and polynomials in scaled power-sum time variables.

The time variables t_k carry weight k; a TimePolynomial may be truncated at a
maximum total weight, in which case heavier monomials are unknown rather than
zero (the same reading as LaurentSeries truncation, with weight in place of
exponent).  Variables are keyed by a (family, index) pair so that several
independent sets of variables coexist in one arithmetic: the times t, the
second times s of the bilinear residue, and named flow parameters.

The Schur polynomial chi_lam in the times t lives here, read off the
characters: with p_k = k t_k, the coefficient of prod_k t_k^m_k in chi_lam
is chi^lam(mu) / prod_k m_k! (Murnaghan-Nakayama, Macdonald I.7), and the
p_n of exp(sum_k t_k z^k) are the one-row chi_(n).  Beside them are the
strip sums D_{lam,alpha}, the Hall pairing in these coordinates (integer
numerators over one denominator, one Fraction per pairing), and the
scaled-derivative action f(d~) with d~_k = (1/k) d/dt_k; only tvar and
schur_p take another family.  partitions, schur_p, schur, strip_sum and the
helpers _character, _mono_weight and _hall_norm are memoized with
functools.cache for the life of the process: their values are shared and
never mutated in place.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod

from .errors import InsufficientPrecision, ParseError, ZgrassError


class Partition:
    """Weakly decreasing positive integers, with their sum and first part."""

    __slots__ = ("parts", "weight", "top")

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            parts = parts.parts
        ps = tuple(int(p) for p in parts if p != 0)
        if any(p < 0 for p in ps):
            raise ParseError(f"negative part in {ps}")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ParseError(f"parts must be weakly decreasing: {ps}")
        self.parts = ps
        self.weight = sum(ps)
        self.top = ps[0] if ps else 0

    def key(self):
        """Total order: by weight, then lexicographically on the parts."""
        return (self.weight, self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.key() < Partition(other).key()

    def __repr__(self):
        return f"Partition{self.parts!r}"


@cache
def partitions(n):
    """All partitions of n, ascending in the (weight, lex) order."""
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(Partition(acc))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, acc + [p])

    rec(n, n, [])
    return tuple(sorted(out, key=Partition.key))


def partitions_upto(w):
    """All partitions of weight at most w, ascending."""
    return [lam for n in range(w + 1) for lam in partitions(n)]


def partitions_in_box(maxlen, maxwidth, maxweight=None):
    """All partitions with at most maxlen parts, each at most maxwidth, of
    weight at most maxweight (>= 0) when given, ascending.  The weight
    bound prunes the enumeration, so the cost follows the output."""
    out = []

    def rec(i, cap, room, acc):
        out.append(Partition(acc))
        if i == maxlen:
            return
        for p in range(min(cap, room), 0, -1):
            rec(i + 1, p, room - p, acc + [p])

    rec(0, maxwidth, maxlen * maxwidth if maxweight is None else maxweight, [])
    return sorted(out, key=Partition.key)


def horizontal_strips(lam, alpha):
    """Partitions mu <= lam with lam/mu a horizontal strip of size alpha.

    Interlacing condition: lam_{i+1} <= mu_i <= lam_i for every row.  Empty
    for alpha > lam_1 (nothing to remove beyond the first row's overhang).
    """
    lam = Partition(lam)
    parts = lam.parts
    found = []

    def rec(i, remaining, acc):
        if i == len(parts):
            if remaining == 0:
                found.append(Partition(acc))
            return
        lo = parts[i + 1] if i + 1 < len(parts) else 0
        for mu in range(parts[i], lo - 1, -1):
            rem = remaining - (parts[i] - mu)
            if rem < 0:
                break
            rec(i + 1, rem, acc + [mu])

    rec(0, alpha, [])
    return tuple(sorted(found, key=Partition.key))


# -- time polynomials --------------------------------------------------------


@cache
def _mono_weight(mono):
    return sum(k * m for (_, k), m in mono)


class TimePolynomial:
    """Sparse polynomial in time variables with optional weight truncation.

    terms: {mono: Fraction} with mono a sorted tuple of ((family, k), mult).
    maxweight=None means exact; otherwise monomials of weight > maxweight are
    unknown and operations track the largest sound cap for their result.
    """

    def __init__(self, terms=None, maxweight=None):
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, c in items:
                if isinstance(c, int):
                    c = Fraction(c)
                mono = tuple(sorted((v, m) for v, m in mono if m))
                if maxweight is not None and _mono_weight(mono) > maxweight:
                    continue
                data[mono] = data[mono] + c if mono in data else c
        self.terms = {m: c for m, c in data.items() if c}
        self.maxweight = maxweight

    @classmethod
    def _canonical(cls, terms, maxweight):
        """Arithmetic's constructor: terms have canonical monomials, so it
        only drops zero coefficients and monomials past the cap."""
        out = cls.__new__(cls)
        out.terms = {m: c for m, c in terms.items() if c and (
            maxweight is None or _mono_weight(m) <= maxweight)}
        out.maxweight = maxweight
        return out

    # -- inspection ----------------------------------------------------------

    @property
    def exact(self):
        return self.maxweight is None

    def weight(self):
        """Largest weight present in the support (0 for no terms)."""
        return max((_mono_weight(m) for m in self.terms), default=0)

    def coeff(self, mono):
        mono = tuple(sorted((v, m) for v, m in mono if m))
        w = _mono_weight(mono)
        if self.maxweight is not None and w > self.maxweight:
            raise InsufficientPrecision(
                f"monomial of weight {w} beyond cap {self.maxweight}"
            )
        return self.terms.get(mono, Fraction(0))

    def constant_term(self):
        if self.maxweight is not None and self.maxweight < 0:
            raise InsufficientPrecision("even the constant term is unknown")
        return self.terms.get((), Fraction(0))

    def component(self, w):
        """The exact weight-w homogeneous part."""
        if self.maxweight is not None and w > self.maxweight:
            raise InsufficientPrecision(
                f"weight {w} beyond cap {self.maxweight}"
            )
        return TimePolynomial._canonical(
            {m: c for m, c in self.terms.items() if _mono_weight(m) == w}, None
        )

    def with_cap(self, maxweight):
        if self.maxweight is not None and (
            maxweight is None or maxweight > self.maxweight
        ):
            maxweight = self.maxweight
        return TimePolynomial._canonical(self.terms, maxweight)

    def is_zero(self):
        return not self.terms and self.maxweight is None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = tconst(other)
        if not isinstance(other, TimePolynomial):
            return NotImplemented
        return self.terms == other.terms and self.maxweight == other.maxweight

    # -- arithmetic ----------------------------------------------------------

    def _cap_with(self, other):
        if self.maxweight is None:
            return other.maxweight
        if other.maxweight is None:
            return self.maxweight
        return min(self.maxweight, other.maxweight)

    def __add__(self, other):
        if not isinstance(other, TimePolynomial):
            other = tconst(other)
        data = dict(self.terms)
        for m, c in other.terms.items():
            data[m] = data[m] + c if m in data else c
        return TimePolynomial._canonical(data, self._cap_with(other))

    __radd__ = __add__

    def __neg__(self):
        return TimePolynomial._canonical(
            {m: -c for m, c in self.terms.items()}, self.maxweight
        )

    def __sub__(self, other):
        if not isinstance(other, TimePolynomial):
            other = tconst(other)
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, TimePolynomial):
            if isinstance(other, int):
                other = Fraction(other)
            if not other:
                return TimePolynomial()
            return TimePolynomial._canonical(
                {m: c * other for m, c in self.terms.items()}, self.maxweight
            )
        if self.is_zero() or other.is_zero():
            return TimePolynomial()
        cap = self._cap_with(other)
        data = {}
        for m1, c1 in self.terms.items():
            room = None if cap is None else cap - _mono_weight(m1)
            for m2, c2 in other.terms.items():
                if room is not None and _mono_weight(m2) > room:
                    continue
                if not (m1 and m2):
                    m = m1 or m2
                else:
                    d = dict(m1)
                    for v, mult in m2:
                        d[v] = d.get(v, 0) + mult
                    m = tuple(sorted(d.items()))
                p = c1 * c2
                data[m] = data[m] + p if m in data else p
        return TimePolynomial._canonical(data, cap)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse_unit() ** (-n)
        out = tconst(1)
        for _ in range(n):
            out = out * self
        return out

    # -- structure maps ------------------------------------------------------

    def negate_times(self):
        """Substitute t_k -> -t_k in every family simultaneously."""
        return TimePolynomial._canonical(
            {
                m: -c if sum(mult for _, mult in m) % 2 else c
                for m, c in self.terms.items()
            },
            self.maxweight,
        )

    def differentiate(self, fam, k):
        """d/dt_{fam,k}.  Lowers the sound weight cap by k."""
        var = (fam, k)
        cap = None if self.maxweight is None else self.maxweight - k
        data = {}
        for m, c in self.terms.items():
            d = dict(m)
            mult = d.get(var)
            if not mult:
                continue
            if mult == 1:
                del d[var]
            else:
                d[var] = mult - 1
            mono = tuple(sorted(d.items()))
            data[mono] = data.get(mono, Fraction(0)) + mult * c
        return TimePolynomial._canonical(data, cap)

    def inverse_unit(self):
        """Inverse of a unit (nonzero constant term).

        Nonconstant input requires a weight cap: the inverse is then the
        terminating geometric series in the augmentation-positive part.
        """
        c0 = self.constant_term()
        if not c0:
            raise ZgrassError("not a unit: zero constant term")
        cinv = Fraction(1) / c0
        # self = c0 * (1 - q), so its inverse is cinv * (1 + q + q^2 + ...)
        q = (self - c0) * -cinv
        if not q:
            return tconst(cinv).with_cap(self.maxweight)
        if self.maxweight is None:
            raise ZgrassError("nonconstant polynomial has no polynomial inverse")
        out = term = tconst(1).with_cap(self.maxweight)
        while term := term * q:
            out = out + term
        return out * cinv

    def __repr__(self):
        if not self.terms and self.maxweight is None:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: (_mono_weight(m), m)):
            c = self.terms[m]
            vars_ = "*".join(
                f"{fam}{k}" if mult == 1 else f"{fam}{k}^{mult}"
                for (fam, k), mult in m
            )
            if not vars_:
                bits.append(str(c))
            elif c == 1:
                bits.append(vars_)
            elif c == -1:
                bits.append(f"-{vars_}")
            else:
                bits.append(f"{c}*{vars_}")
        if self.maxweight is not None:
            bits.append(f"O(wt {self.maxweight + 1})")
        out = " + ".join(bits) if bits else "0"
        return out.replace("+ -", "- ")


def tvar(k, fam="t"):
    if k < 1:
        raise ZgrassError("time indices start at 1")
    return TimePolynomial({(((fam, k), 1),): Fraction(1)})


def tconst(c):
    return TimePolynomial({(): c})


def tsum(polys, maxweight):
    """The sum of the polynomials, known through the least of their caps and
    maxweight: the terms gather in one dict, not in a copy per summand."""
    data = {}
    for p in polys:
        if p.maxweight is not None and (
                maxweight is None or p.maxweight < maxweight):
            maxweight = p.maxweight
        for m, c in p.terms.items():
            data[m] = data[m] + c if m in data else c
    return TimePolynomial._canonical(data, maxweight)


# -- Schur calculus ----------------------------------------------------------

@cache
def _character(beads, mu):
    """chi^lam(mu) by Murnaghan-Nakayama on lam's beta-numbers, the bits
    lam_i + len(lam) - i of beads: a rim hook of length mu[0] moves a bead
    b to a free b - mu[0] >= 0, with sign (-1)^(beads jumped)."""
    if not mu:
        return 1
    k, total = mu[0], 0
    for b in range(k, beads.bit_length()):
        if beads >> b & 1 and not beads >> (b - k) & 1:
            moved = beads ^ (1 << b) ^ (1 << (b - k))
            while moved & 1:  # a bead at 0 is a zero part: drop it
                moved >>= 1
            chi = _character(moved, mu[1:])
            jumped = beads >> (b - k + 1) & ((1 << (k - 1)) - 1)
            total += -chi if jumped.bit_count() & 1 else chi
    return total


@cache
def schur(lam):
    """Schur polynomial chi_lam in the times t: the coefficient of
    t^mu = prod_k t_k^m_k is chi^lam(mu) / prod_k m_k!."""
    lam, terms = Partition(lam), {}
    beads = sum(1 << (p + len(lam) - 1 - i) for i, p in enumerate(lam))
    for mu in partitions(lam.weight):
        chi = _character(beads, mu.parts)
        if chi:
            mults = sorted(Counter(mu.parts).items())
            terms[tuple((("t", k), m) for k, m in mults)] = Fraction(
                chi, prod(factorial(m) for _, m in mults))
    return TimePolynomial._canonical(terms, None)


@cache
def schur_p(n, fam="t"):
    """Coefficient p_n of z^n in exp(sum_k t_k z^k), in the given family;
    zero for n < 0.  It is the one-row Schur polynomial chi_(n), since
    chi^(n) = 1 on every class."""
    if n < 0:
        return TimePolynomial()
    p = schur((n,))
    if fam == "t":
        return p
    return TimePolynomial._canonical(
        {tuple(((fam, k), m) for (_, k), m in mono): c
         for mono, c in p.terms.items()}, None)


@cache
def strip_sum(lam, alpha):
    """Sum of chi_mu over horizontal alpha-strips lam/mu."""
    return sum((schur(mu) for mu in horizontal_strips(lam, alpha)),
               TimePolynomial())


# -- Hall pairing and scaled derivatives --------------------------------------


@cache
def _hall_norm(mono):
    """prod_k m_k! / k^m_k as an integer pair (numerator, denominator)."""
    return (prod(factorial(mult) for _, mult in mono),
            prod(k ** mult for (_, k), mult in mono))


def hall(f, g):
    """Hall pairing: <prod t_k^a_k, prod t_k^b_k> = delta_ab prod a_k!/k^a_k.

    Requires each operand's support to sit inside the other's sound weight
    range, since unknown heavy monomials would pair with known ones.  The
    coefficients are rationals (int or Fraction): the matched terms add as
    integers over one running lcm denominator, into one Fraction.
    """
    for a, b in ((f, g), (g, f)):
        if b.maxweight is not None and a.weight() > b.maxweight:
            raise InsufficientPrecision(
                f"pairing needs weight {a.weight()}, cap is {b.maxweight}"
            )
    num, den = 0, 1
    for m, cf in f.terms.items():
        cg = g.terms.get(m)
        if cg:
            nn, nd = _hall_norm(m)
            d = cf.denominator * cg.denominator * nd
            lo = lcm(den, d)
            num = (num * (lo // den)
                   + cf.numerator * cg.numerator * nn * (lo // d))
            den = lo
    return Fraction(num, den)


def apply_tilde(op, target):
    """Apply op(d~) to target, where d~_k = (1/k) d/dt_k per variable of op.

    The operator polynomial must be exact; the result cap reflects the
    precision actually lost differentiating the target.  The partial
    derivatives of the target are shared, keyed by the variables so far.
    """
    if op.maxweight is not None:
        raise ZgrassError("operator polynomial must be exact")
    out = TimePolynomial() if target.maxweight is None else TimePolynomial(
        {}, target.maxweight
    )
    partials = {(): target}
    for m, c in op.terms.items():
        key = ()
        for var in (v for v, mult in m for _ in range(mult)):
            if key + (var,) not in partials:
                partials[key + (var,)] = partials[key].differentiate(*var)
            key += (var,)
        out = out + partials[key] * (c / prod(k ** n for (_, k), n in m))
    return out


def sqrt_series(q, weight):
    """Weight-graded square root of q with q(0) = 1, up to total weight.

    Returns the unique r with r(0) = 1 and r^2 = q through the requested
    weight, as an exact polynomial containing just those components.  The
    input must be known through that weight.
    """
    if q.constant_term() != 1:
        raise ZgrassError("sqrt_series needs constant term exactly 1")
    comps = {0: tconst(1)}
    for w in range(1, weight + 1):
        # c_u c_(w-u) over u < w/2 twice, then an even w's middle square
        cross = tsum([comps[u] * comps[w - u] for u in range(1, (w + 1) // 2)],
                     None)
        s = q.component(w) - cross * 2
        if w % 2 == 0:
            s = s - comps[w // 2] * comps[w // 2]
        comps[w] = s * Fraction(1, 2)
    return tsum(comps.values(), None)
