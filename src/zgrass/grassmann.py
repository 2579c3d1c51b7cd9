"""Finite-window frames for polynomial-type subspaces of Laurent series.

A FramePoint is the subspace

    span(rows) + span{ z^-j : j > tail_j }

of the Laurent series field: finitely many explicit generators sitting on top
of a cofinite monomial tail.  Each row carries a declared pivot exponent;
pivots are strictly decreasing and never dip below -tail_j, and the charge
(the index of the point relative to the reference z^-1 k[z^-1]) is always
len(rows) - tail_j.

An exact point is a canonical reduced frame, and the constructor refuses
any other: pivots are the row valuations, rows are monic at their pivot,
supported at or above -tail_j and zero at each other's pivots, and a trailing
monomial row is absorbed into the tail.  Exact points read no window.
Minors, Baker rows and stabilizer conditions all read FramePoint.basis: the
explicit rows, then the tail monomials z^-(tail_j+1), z^-(tail_j+2), ....
FramePoint.plucker is the one coordinate, a minor of the basis;
FramePoint.pluckers reads many straight off the canonical rows.

One flow of an exact point by a non-monomial unit gives the one
window-approximate point (a flow is a time shift, Segal-Wilson 1985): its
rows are verbatim products (not re-normalized -- minor values along an orbit
must pull back unscaled), its declared pivots are bookkeeping, and the
window (lo, hi), an inclusive exponent range, bounds the tail the flow
writes out.  minor and plucker read its explicit rows alone; flow,
pluckers, orthogonal, reduce and the membership tests refuse it.  No
command builds one: it stays for the benchmark's answer check
(perfbench/workloads.py, _check_tau), the vacuum minor of an exact point
flowed once by the universal exponential cut at its window floor
(tau.times_flow).

The one involution frames know is the sign flip z -> -z (LaurentSeries.flip):
it maps monomials to monomials, so isotropy and invariance stay exact, and the
complement twisted by it is the flip of the plain one.  A curve's involution
with linear part -1 is first brought to it by krichever.normalize_involution.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DependentGenerators,
    IndexMismatch,
    InsufficientPrecision,
    NonzeroIndex,
    NotSigmaInvariant,
    WindowTooSmall,
    ZeroInput,
    ZgrassError,
)
from .linalg import det_ring, det_unit, echelon, kernel
from .series import LaurentSeries, pair_sigma
from .symfun import Partition

DEFAULT_WINDOW = (-32, 32)


class IsotropyReport(NamedTuple):
    isotropic: bool
    parity: int
    witness: tuple | None


def _is_unit_one(c):
    """True for the scalar 1, including a capped constant polynomial 1."""
    if isinstance(c, (int, Fraction)):
        return c == 1
    terms = getattr(c, "terms", None)
    return terms == {(): Fraction(1)}


def _det(mat):
    """det_unit, or det_ring where a column holds no unit pivot."""
    try:
        return det_unit(mat)
    except ZgrassError:
        return det_ring(mat)


def _chart_columns(lam, d, n):
    """Columns d + lam_i - i (i = 1..n) of lam in the charge-d chart."""
    return tuple(d + (lam[i] if i < len(lam) else 0) - (i + 1)
                 for i in range(n))


class FramePoint:
    """A frame over a monomial tail.  An exact frame is canonical, and the
    constructor checks it in one pass over the rows: each row is monic at
    its pivot and zero at every other pivot, and the last row is not the
    monomial z^-tail_j (from_gens folds that row into the tail), so that
    contains, same_subspace and pluckers may read the rows as they are.
    exact is False only on a frame that flow built from an exact one;
    window is the exponent range a flow writes out, which `zgrass check`
    reports and no exact computation reads."""

    def __init__(
        self,
        rows,
        pivots,
        tail_j,
        window=DEFAULT_WINDOW,
        exact=True,
    ):
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        self.tail_j = tail_j
        self.window = (int(window[0]), int(window[1]))
        self.exact = exact
        if self.window[0] >= self.window[1]:
            raise ZgrassError("window must satisfy lo < hi")
        if len(self.rows) != len(self.pivots):
            raise IndexMismatch("one pivot per row")
        pivs = set(self.pivots)
        for r, p in zip(self.rows, self.pivots):
            if not isinstance(r, LaurentSeries) or not r.exact:
                raise ZgrassError("frame rows must be exact series")
            if exact and r.low != p:
                raise IndexMismatch("an exact row's pivot is its valuation")
            # a set lookup per exponent keeps the check linear in the rows:
            # a complement can hold thousands of them
            if exact and (not _is_unit_one(r.coeffs[p])
                          or any(e in pivs for e in r.coeffs if e != p)):
                raise IndexMismatch(
                    "an exact row is monic at its pivot, zero at the others")
        for a, b in zip(self.pivots, self.pivots[1:]):
            if a <= b:
                raise IndexMismatch("pivots must be strictly decreasing")
        if self.pivots and self.pivots[-1] < -tail_j:
            raise IndexMismatch("pivot below the tail boundary")
        if (exact and self.pivots and self.pivots[-1] == -tail_j
                and len(self.rows[-1].coeffs) == 1):
            raise IndexMismatch("the monomial z^-tail_j belongs to the tail")

    # -- constructors --------------------------------------------------------

    @classmethod
    def vacuum(cls, window=DEFAULT_WINDOW):
        """The reference point z^-1 k[z^-1]: no rows, tail_j = 0, charge 0."""
        return cls((), (), 0, window)

    @classmethod
    def from_gens(
        cls,
        gens,
        tail_j,
        window=DEFAULT_WINDOW,
        allow_dependent=False,
    ):
        """Canonical frame from explicit generators over the tail.

        Generators are reduced modulo the tail (coefficients at or below
        -(tail_j+1) dropped), brought to reduced echelon form with valuation
        pivots, and trailing monomial rows are absorbed into the tail so the
        frame is minimal.  Dependent generators raise unless allow_dependent
        (projections and closures legitimately produce them).
        """
        gens = list(gens)
        for g in gens:
            if not isinstance(g, LaurentSeries) or not g.exact:
                raise ZgrassError("generators must be exact series")
        basis, kept = echelon([g.drop_below(-tail_j).coeffs for g in gens])
        if len(kept) < len(gens) and not allow_dependent:
            raise DependentGenerators(
                "generator lies in the span of the others and the tail"
            )
        pivots = sorted(basis, reverse=True)
        rows = [LaurentSeries(basis[p]) for p in pivots]
        # absorb trailing pure monomials into the tail
        while rows and pivots[-1] == -tail_j and rows[-1] == LaurentSeries.monomial(-tail_j):
            rows.pop()
            pivots.pop()
            tail_j -= 1
        return cls(rows, pivots, tail_j, window)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def charge(self):
        """Index relative to the reference point; len(rows) - tail_j always."""
        return len(self.rows) - self.tail_j

    def basis(self, n):
        """The first n basis rows, descending declared pivot: the explicit
        rows, then tail monomials (row i >= len(rows) is z^(charge-1-i))."""
        return [*self.rows[:n], *(LaurentSeries.monomial(self.charge - 1 - i)
                                  for i in range(len(self.rows), n))]

    def __repr__(self):
        kind = "exact" if self.exact else "approx"
        rs = ", ".join(repr(r) for r in self.rows)
        return (
            f"FramePoint([{rs}], tail_j={self.tail_j}, "
            f"charge={self.charge}, {kind})"
        )

    # -- membership ----------------------------------------------------------

    def reduce(self, f):
        """Remainder of f after clearing its coefficient at every pivot.

        An exact frame's rows are zero at each other's pivots, so one pass
        over f's keys subtracts f[p] * row_p for each pivot p among them; a
        flowed frame's are not, and it is refused.  A truncated f unknown at
        the top pivot raises InsufficientPrecision.  The visible part of the
        remainder (exponents above the tail) is what obstructs membership.
        """
        if not self.exact:
            raise ZgrassError("reduction needs an exact frame")
        if f.trunc is not None and self.pivots and self.pivots[0] >= f.trunc:
            raise InsufficientPrecision(f"coefficient at {self.pivots[0]} not "
                                        f"known (truncated at {f.trunc})")
        rows = dict(zip(self.pivots, self.rows))
        return sum((rows[p] * -c for p, c in f.coeffs.items() if p in rows), f)

    def contains(self, f):
        """Whether the exact series f lies in the subspace of an exact frame.

        A truncated f is refused: its unknown part lies at or above its
        truncation, above the tail, where it decides membership.
        """
        if not isinstance(f, LaurentSeries) or not f.exact:
            raise ZgrassError("membership test needs an exact series")
        r = self.reduce(f)
        return all(e <= -(self.tail_j + 1) for e in r.coeffs)

    def same_subspace(self, other):
        """Whether two exact frames span one subspace: being canonical, they
        do exactly when their rows, pivots and tails agree."""
        if not (self.exact and other.exact):
            raise ZgrassError("subspace comparison needs exact frames")
        return (self.rows, self.pivots, self.tail_j) == (
            other.rows, other.pivots, other.tail_j)

    # -- minors ---------------------------------------------------------------

    def minor(self, cols):
        """Determinant of the frame sampled at the given exponent columns.

        Row i is the i-th basis row (descending declared pivot); the entry
        at column c is its z^c coefficient.  Exact frames may be sampled at
        any depth, whatever their window (the tail really is monomial).  A
        flowed frame certifies its explicit rows alone, so it raises
        WindowTooSmall on more columns than rows: that refusal stays for the
        benchmark's answer check, which reads the vacuum minor of one.
        """
        n = len(cols)
        if n == 0:
            return Fraction(1)
        if not self.exact and n > len(self.rows):
            raise WindowTooSmall(
                f"frame holds {len(self.rows)} certified rows, need {n}")
        rows = self.basis(n)
        return _det([[rows[i].coeffs.get(c, Fraction(0)) for c in cols]
                     for i in range(n)])

    def plucker(self, lam):
        """Pluecker coordinate of the partition lam in the charge-d chart.

        Columns are d + lam_i - i over enough rows to cover every explicit
        generator.  The value is stable against enlarging the minor: for an
        exact frame the extra row/column pairs are matched monomials, and a
        flow writes out every row with support inside the window, so the
        unsampled remainder always extends the determinant by units on the
        diagonal.  On a flowed frame it reads the explicit rows alone
        (minor).
        """
        lam = Partition(lam)
        n = max(len(lam), len(self.rows))
        return self.minor(_chart_columns(lam, self.charge, n))

    def pluckers(self, lams):
        """The coordinates plucker(lam) of the partitions lams, in order,
        read straight off the rows of an exact frame.

        A partition longer than the rows reads 0, since its last tail row
        meets none of its columns.  Every other minor samples the explicit
        rows alone, at chart columns at or above -tail_j.  The rows are
        canonical (the constructor checks it), so each pivot column is a
        unit vector across them: the minor is the block of the rows whose
        pivot lam does not sample, at lam's columns that are no pivot,
        signed by the matching of rows to columns.  On the big cell the
        blocks are at most Durfee-sized.  A flowed frame is refused; its one
        coordinate is plucker.
        """
        if not self.exact:
            raise ZgrassError("Pluecker coordinates need an exact frame")
        m = len(self.rows)
        rows = [r.coeffs for r in self.rows]
        out = []
        for lam in lams:
            if len(lam) > m:
                out.append(Fraction(0))
                continue
            # match row i to the position of its column in the minor: a
            # pivot row to its pivot, the others in order to what is left
            cols = _chart_columns(lam, self.charge, m)
            pos = {c: k for k, c in enumerate(cols)}
            match = [pos.pop(p) if p in pos else None for p in self.pivots]
            free = [i for i, k in enumerate(match) if k is None]
            v = _det([[rows[i].get(c, Fraction(0)) for c in pos]
                      for i in free])
            for i, k in zip(free, pos.values()):
                match[i] = k
            odd = sum(a > b for i, a in enumerate(match) for b in match[i + 1:])
            out.append(-v if odd % 2 else v)
        return out

    # -- flows ----------------------------------------------------------------

    def flow(self, g):
        """Multiply the subspace of an exact frame by an exact unit g.

        The anchor of g -- its largest nonpositive supported exponent, or its
        valuation when the support is entirely positive -- plays the role the
        valuation would play for an honest unit: declared pivots shift by it
        and the charge changes by it.  A monomial flow is an exact shift.
        Any other flow produces a window-approximate point whose rows are
        the verbatim products g * (old basis), with enough of the old tail
        written out that everything supported inside the window is explicit;
        that branch stays for the benchmark's answer check, and the point it
        builds is refused here in turn.

        Non-monomial g must have coefficient 1 at its anchor, so that minor
        values along the orbit are pinned rather than rescaled.
        """
        if not self.exact:
            raise ZgrassError("flow needs an exact frame")
        if not isinstance(g, LaurentSeries) or not g.exact:
            raise ZgrassError("flow needs an exact series")
        if not g.coeffs:
            raise ZeroInput("cannot flow by zero")
        supp = sorted(g.coeffs)
        nonpos = [e for e in supp if e <= 0]
        anchor = max(nonpos) if nonpos else supp[0]
        if len(supp) == 1:
            n = supp[0]
            return FramePoint([r.shift(n) for r in self.rows],
                              [p + n for p in self.pivots],
                              self.tail_j - n, self.window)
        if not _is_unit_one(g.coeffs[anchor]):
            raise ZgrassError("non-monomial flow must have coefficient 1 at its anchor")
        j_hi = max(self.tail_j, supp[-1] - self.window[0])
        mat_js = range(self.tail_j + 1, j_hi + 1)
        # shift g: z^-j * g would multiply each polynomial coefficient by 1
        rows = [r * g for r in self.rows] + [g.shift(-j) for j in mat_js]
        pivs = [p + anchor for p in self.pivots] + [anchor - j for j in mat_js]
        return FramePoint(rows, pivs, j_hi - anchor, self.window, exact=False)

    # -- orthogonal complement -------------------------------------------------

    def orthogonal(self):
        """Orthogonal complement under the residue pairing Res f g dz.

        The complement of an exact frame is exact and polynomial-type, of
        charge minus the charge of the point; a flowed frame is refused.
        Every z^e below -1 - maxtop, maxtop the rows' top exponent, pairs to
        zero with the rows: that is its tail.  Above it, sum c_e z^e is
        orthogonal when c_(-1-x), keyed by x, lies in the kernel of the rows.
        The canonical rows are that kernel's reduced basis as they are, so
        nothing is eliminated.  The kernel, one vector monic at each free x
        ascending, read through e = -1 - x is already the canonical frame.
        Under the pairing twisted by the sign flip the complement is the
        flip of this one.
        """
        if not self.exact:
            raise ZgrassError("complement needs an exact frame")
        maxtop = max((r.top for r in self.rows), default=-1 - self.tail_j)
        floor_e = -1 - maxtop
        basis = dict(zip(self.pivots, (r.coeffs for r in self.rows)))
        rows = [LaurentSeries({-1 - x: c for x, c in v.items()})
                for v in kernel(basis, range(-self.tail_j, maxtop + 1))]
        return FramePoint(rows, [r.low for r in rows], -floor_e, self.window)

    # -- the isotropic locus ----------------------------------------------------

    def isotropy(self):
        """Certify that the point pairs to zero with itself under the sign flip.

        Requires charge 0.  Explicit rows are paired with each other and with
        the tail monomials their support reaches; two tail monomials z^-i and
        z^-j pair to z^-(i+j), never a residue, so the tail needs no check.
        The parity of the point is the number of nonnegative pivots mod 2.
        """
        if self.charge != 0:
            raise NonzeroIndex(f"isotropy needs charge 0, got {self.charge}")
        J = self.tail_j
        parity = sum(1 for p in self.pivots if p >= 0) % 2
        for i, r in enumerate(self.rows):
            for k in range(i, len(self.rows)):
                v = pair_sigma(r, self.rows[k])
                if v:
                    return IsotropyReport(False, parity, ("row", i, "row", k, v))
        # own loop: the witness is the first failing pair, row-row pairs first
        for i, r in enumerate(self.rows):
            top = r.top if r.top is not None else -(J + 1)
            for j in range(J + 1, top + 2):
                v = pair_sigma(r, LaurentSeries.monomial(-j))
                if v:
                    return IsotropyReport(
                        False, parity, ("row", i, "tail", -j, v)
                    )
        return IsotropyReport(True, parity, None)

    def is_sigma_invariant(self):
        """Whether the sign flip maps the subspace into itself.

        Exact on exact frames: the flip fixes every tail monomial up to sign,
        so the rows decide.
        """
        if not self.exact:
            raise ZgrassError("invariance test needs an exact frame")
        return all(self.contains(r.flip()) for r in self.rows)

    # -- even/odd splitting -----------------------------------------------------

    def split_even_odd(self):
        """Split a sign-invariant point into its even and odd components.

        Even exponents z^{2m} are reindexed to w^m; odd exponents z^{2m+1}
        to w^m as well (the odd part is read in the frame z * k[[z^2]]).
        Tail boundaries: floor(J/2) on the even side, ceil(J/2) on the odd.
        """
        if not self.is_sigma_invariant():
            raise NotSigmaInvariant("point is not stable under the sign flip")
        half = Fraction(1, 2)
        ev, od = [], []
        for r in self.rows:
            fl = r.flip()
            plus = (r + fl) * half
            minus = (r - fl) * half
            if plus:
                ev.append(LaurentSeries({e // 2: c for e, c in plus.coeffs.items()}))
            if minus:
                od.append(
                    LaurentSeries({(e - 1) // 2: c for e, c in minus.coeffs.items()})
                )
        lo, hi = self.window
        wwin = (lo // 2, max(hi // 2, lo // 2 + 1))
        J = self.tail_j
        we = FramePoint.from_gens(ev, J // 2, wwin, allow_dependent=True)
        wo = FramePoint.from_gens(od, (J + 1) // 2, wwin, allow_dependent=True)
        if we.charge + wo.charge != self.charge:
            raise IndexMismatch("even/odd charges do not add up")
        return we, wo


def is_prym_flow(g, floor):
    """Whether g, cut below the exponent floor (an uncut g: its valuation),
    is a flow along the involution locus: g(z) g(-z) = 1 on the exponents
    the data certify, floor + top(g) and up.  Only products landing there
    are formed (tests/frame_oracles.py keeps the whole product).  No src/
    module calls it, since family-square reads the flow exponents; the
    benchmark's tracer (perfbench/tracer.py) binds it by name."""
    start = floor + g.top
    defect = {0: -1} if start <= 0 else {}
    flipped = g.flip().coeffs.items()
    for e1, c1 in g.coeffs.items():
        for e2, c2 in flipped:
            if (e := e1 + e2) >= start:
                defect[e] = defect.get(e, 0) + c1 * c2
    return not any(defect.values())
