"""Exact truncated Laurent series over the rationals.

A LaurentSeries stores finitely many coefficients as a dict {exponent: value}
together with a truncation order `trunc`.  The contract: the series knows its
coefficients on every exponent below `trunc` and nothing at or above it;
`trunc=None` means the series is exact (all absent exponents are genuinely
zero).  Every operation computes the largest truncation it can soundly
guarantee for its result, and coefficient reads beyond the sound range raise
InsufficientPrecision instead of returning a guess.

Coefficient values are Fractions by default, but any commutative ring element
with +, -, *, bool and (for inversion) either Fraction division or an
`inverse_unit` method works; the time polynomials in zgrass.symfun are used
this way for flow and family computations.

The one involution the package uses is the sign flip z -> -z, the method
`flip`: it changes the sign of the odd coefficients and keeps `trunc`, and
`pair_sigma` is the residue pairing twisted by it.  `substitute` composes
with a general coordinate change of valuation 1; only
krichever.normalize_involution needs one, to bring a curve's involution to
the flip.
"""

from fractions import Fraction

from .errors import InsufficientPrecision, ZeroInput, ZgrassError


def _tmin(*ts):
    vals = [t for t in ts if t is not None]
    return min(vals) if vals else None


def _product_trunc(f, g):
    """Sound truncation of f * g, neither an exact zero: where an unknown
    coefficient of one meets the lowest possibly nonzero one of the other."""
    cands = [a.trunc + (b.low if b.coeffs else b.trunc)
             for a, b in ((f, g), (g, f)) if a.trunc is not None]
    return min(cands, default=None)


def _inv_coeff(c):
    if hasattr(c, "inverse_unit"):
        return c.inverse_unit()
    return Fraction(1) / c


class LaurentSeries:
    def __init__(self, coeffs=None, trunc=None):
        data = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, c in items:
                if isinstance(c, int):
                    c = Fraction(c)
                if trunc is not None and e >= trunc:
                    continue
                data[e] = data[e] + c if e in data else c
        self.coeffs = {e: c for e, c in data.items() if c}
        self.trunc = trunc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc=None):
        return cls({}, trunc)

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, e, c=1):
        return cls({e: c})

    # -- inspection --------------------------------------------------------

    @property
    def exact(self):
        return self.trunc is None

    @property
    def low(self):
        """Smallest exponent with a known nonzero coefficient, or None."""
        return min(self.coeffs) if self.coeffs else None

    @property
    def top(self):
        """Largest exponent with a known nonzero coefficient, or None."""
        return max(self.coeffs) if self.coeffs else None

    def valuation(self):
        if self.coeffs:
            return min(self.coeffs)
        if self.trunc is None:
            raise ZeroInput("valuation of the zero series")
        raise InsufficientPrecision(
            f"series is zero below {self.trunc}; valuation unknown"
        )

    def coeff(self, e):
        if self.trunc is not None and e >= self.trunc:
            raise InsufficientPrecision(
                f"coefficient at {e} not known (truncated at {self.trunc})"
            )
        return self.coeffs.get(e, Fraction(0))

    def is_zero(self):
        """True only for the exact zero series."""
        return not self.coeffs and self.trunc is None

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries({0: other})
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.coeffs == other.coeffs and self.trunc == other.trunc

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries({0: other})
        data = dict(self.coeffs)
        for e, c in other.coeffs.items():
            data[e] = data[e] + c if e in data else c
        return LaurentSeries(data, _tmin(self.trunc, other.trunc))

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries({e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries({0: other})
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            if isinstance(other, int):
                other = Fraction(other)
            if not other:
                return LaurentSeries()
            return LaurentSeries(
                {e: c * other for e, c in self.coeffs.items()}, self.trunc
            )
        f, g = self, other
        if f.is_zero() or g.is_zero():
            return LaurentSeries()
        t = _product_trunc(f, g)
        data = {}
        for e1, c1 in f.coeffs.items():
            for e2, c2 in g.coeffs.items():
                e = e1 + e2
                if t is not None and e >= t:
                    continue
                p = c1 * c2
                data[e] = data[e] + p if e in data else p
        return LaurentSeries(data, t)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        out = LaurentSeries.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structural helpers --------------------------------------------------

    def drop_below(self, floor):
        """Discard coefficients at exponents < floor (an exact-window cut)."""
        return LaurentSeries(
            {e: c for e, c in self.coeffs.items() if e >= floor}, self.trunc
        )

    def shift(self, n):
        """Multiply by z^n."""
        t = None if self.trunc is None else self.trunc + n
        return LaurentSeries({e + n: c for e, c in self.coeffs.items()}, t)

    # -- inversion, the sign flip and substitution ---------------------------

    def invert(self, prec=32):
        """Multiplicative inverse.

        A truncated input known on [v, T) determines its inverse on
        [-v, T - 2v), and that is exactly what is returned.  Exact monomials
        invert exactly; other exact input gets `prec` correct terms.
        """
        if not self.coeffs:
            if self.trunc is None:
                raise ZeroInput("cannot invert the zero series")
            raise InsufficientPrecision("no known leading term to invert")
        v = min(self.coeffs)
        c = self.coeffs[v]
        cinv = _inv_coeff(c)
        if self.trunc is not None:
            nrel = self.trunc - v
            tout = self.trunc - 2 * v
        elif len(self.coeffs) == 1:
            return LaurentSeries({-v: cinv})
        else:
            nrel = prec
            tout = -v + prec
        # normalize: self = c z^v (1 + u), invert 1 + u term by term
        u = {e - v: cinv * cv for e, cv in self.coeffs.items() if e != v}
        b = {0: Fraction(1)}
        for n in range(1, nrel):
            s = None
            for k, uk in u.items():
                if 0 < k <= n and (n - k) in b:
                    term = uk * b[n - k]
                    s = term if s is None else s + term
            if s is not None and s:
                b[n] = -s
        data = {k - v: cinv * bk for k, bk in b.items()}
        return LaurentSeries(data, tout)

    def flip(self):
        """The series at -z: odd coefficients change sign, trunc is kept."""
        return LaurentSeries(
            {e: -c if e % 2 else c for e, c in self.coeffs.items()}, self.trunc
        )

    def substitute(self, sub, prec=32):
        """Compose with z -> sub(z), where the series sub has valuation 1."""
        if sub.valuation() != 1:
            raise ZgrassError("substitution image must have valuation 1")
        out = LaurentSeries({}, self.trunc)
        winv = None
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e >= 0:
                term = sub ** e
            else:
                if winv is None:
                    winv = sub.invert(prec)
                term = winv ** (-e)
            out = out + term * c
        return out

    def __repr__(self):
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            cs = str(c)
            if "+" in cs or "-" in cs[1:] or " " in cs:
                cs = f"({cs})"
            if e == 0:
                bits.append(cs)
            else:
                ze = "z" if e == 1 else f"z^{e}"
                bits.append(ze if cs == "1" else f"{cs}*{ze}")
        if self.trunc is not None:
            bits.append(f"O(z^{self.trunc})")
        return " + ".join(bits) if bits else "0"


def residue(f):
    """Coefficient of z^-1, i.e. the residue of f dz at the origin."""
    return f.coeff(-1)


def pair_std(f, g):
    """Residue pairing Res f(z) g(z) dz: residue(f * g), summed from the
    products f[e] g[-1-e] alone and refused wherever f * g would be."""
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    t = _product_trunc(f, g)
    if t is not None and t <= -1:
        raise InsufficientPrecision(f"residue not known (truncated at {t})")
    total = sum((c * g.coeffs[-1 - e] for e, c in f.coeffs.items()
                 if -1 - e in g.coeffs), Fraction(0))
    return total if total else Fraction(0)


def pair_sigma(f, g):
    """Twisted residue pairing Res f(z) g(-z) dz under the sign flip."""
    return pair_std(f, g.flip())


def exp_floor(u, floor):
    """Truncated exponential of a series supported in negative exponents:
    the exact Laurent polynomial agreeing with exp(u) on exponents >= floor,
    a finite sum since each power of u sinks by at least one exponent.  No
    src/ module calls it; the tests do, and perfbench/tracer.py binds it.
    """
    if u.top is not None and u.top >= 0:
        raise ZgrassError("exp_floor needs support in negative exponents")
    out = LaurentSeries.one()
    term = LaurentSeries.one()
    m = 0
    while term.coeffs:
        m += 1
        term = (term * u).drop_below(floor) * Fraction(1, m)
        out = out + term
    return out
