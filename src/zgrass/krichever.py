"""Dictionary between curve-like function rings and frame points.

One direction: from generators of a ring of functions with poles at a
single marked point (optionally acting on module generators), build the
frame of their span.  The certification is finite: enumerate monomial
products down to the window floor, read off which pole orders the span
achieves, and look for an unbroken run of orders long enough that one
generator can walk it forward indefinitely.  When every order in the run
is achieved by an exact monomial and the resulting frame is closed under
multiplication by the generators, the frame is the span, exactly.  If the
monomial check fails, WindowTooSmall (UNCERTIFIED); if no run can be
certified at all, NotClosed.

Other direction: diagnostics that recognize frames of ring origin --
multiplicative closure, the stabilizer ring of a point, the dimension
profile of its flow orbit (whose stable value counts the gaps of the pole
semigroup), the even-variable quotient of a sign-invariant ring point, and
the coordinate normalization that turns an involution into the sign flip.
An involution is given by its image series s(z); normalize_involution is the
one place a general substitution is composed, and every other tool here
reads the involution as LaurentSeries.flip.
"""

from typing import NamedTuple

from .errors import (
    NotClosed,
    NotInvolution,
    NotNormalizable,
    NotRingPoint,
    WindowTooSmall,
    ZgrassError,
)
from .grassmann import DEFAULT_WINDOW, FramePoint
from .linalg import echelon, kernel
from .series import LaurentSeries


UNCERTIFIED = "window-approximate tail; widen the window"


class CurveData(NamedTuple):
    """Generating data for a span: ring generators, optional module
    generators (empty means the ring itself) and a display label.  The
    generators are read in a coordinate where the involution, if any, is the
    sign flip (see normalize_involution)."""

    ring_gens: tuple
    module_gens: tuple = ()
    label: str = ""


def _expand(cur, gens, budget, out):
    if not gens:
        out.append(cur)
        return
    g, rest = gens[0], gens[1:]
    order = -g.valuation()
    acc, left = cur, budget
    while True:
        _expand(acc, rest, left, out)
        if left < order:
            return
        acc = acc * g
        left -= order


def _cert_need(g):
    """Run length letting g extend verified monomials to all deeper orders.

    Multiplying z^-j by g lands on z^-(j+ord) plus corrections no deeper
    than ord + top positions above; a verified run that long closes the
    induction.
    """
    exps = sorted(g.coeffs)
    order = -exps[0]
    top = exps[-1]
    return order + max(0, top) if len(exps) > 1 else order


def _closed_under(u, gens):
    # tail monomials deeper than g's top exponent keep g's product in the tail
    return all(
        u.contains(r * g)
        for g in gens
        for r in u.basis(len(u.rows) + max([0, *g.coeffs]))
    )


def span_closure(gens, window=DEFAULT_WINDOW, module_gens=()):
    """Frame of the span of the ring (or module) generated below the window.

    Returns an exact frame when the window certifies the monomial tail and
    the frame is closed under the generators; raises WindowTooSmall
    (UNCERTIFIED) when the span differs from every monomial-tail form
    within view, and NotClosed when the achieved pole orders never run long
    enough to certify anything.
    """
    if isinstance(gens, CurveData):
        module_gens = gens.module_gens or ()
        gens = gens.ring_gens
    gens = list(gens)
    if not gens:
        raise NotClosed("no ring generators")
    for g in gens:
        if not isinstance(g, LaurentSeries) or not g.exact:
            raise ZgrassError("generators must be exact series")
        if not g or g.valuation() >= 0:
            raise ZgrassError("ring generators must have a pole")
    mods = list(module_gens) or [LaurentSeries.one()]
    depth = -int(window[0])
    products = []
    for m in mods:
        if not isinstance(m, LaurentSeries) or not m.exact or not m:
            raise ZgrassError("module generators must be nonzero exact series")
        budget = depth + m.valuation()
        if budget < 0:
            raise WindowTooSmall("module generator has a pole below the window")
        _expand(m, gens, budget, products)
    full = FramePoint.from_gens(products, depth, window, allow_dependent=True)
    achieved = {-p for p in full.pivots} | set(
        range(full.tail_j + 1, depth + 1)
    )
    top = max(achieved)
    jstar = top
    while jstar - 1 in achieved:
        jstar -= 1
    need = min(_cert_need(g) for g in gens)
    if top - jstar + 1 < need:
        raise NotClosed(
            f"achieved orders run [{jstar}, {top}], shorter than the "
            f"certification length {need}; widen the window"
        )
    if all(full.contains(LaurentSeries.monomial(-j))
           for j in range(jstar, top + 1)):
        # full spans the products modulo the deeper tail, so its rows span
        # the same subspace as the products modulo z^-jstar
        point = FramePoint.from_gens(full.rows, jstar - 1, window,
                                     allow_dependent=True)
        if _closed_under(point, gens):
            return point
    raise WindowTooSmall(UNCERTIFIED)


# -- recognizing ring points ---------------------------------------------------


def is_ring_point(u):
    """Whether the subspace contains 1 and is closed under multiplication.

    Finitely many products decide it: row by row, and rows against the few
    tail monomials shallow enough that the product could stick out of the
    tail.  Needs an exact frame.
    """
    if not u.exact:
        raise ZgrassError("ring test needs an exact frame")
    return u.contains(LaurentSeries.one()) and _closed_under(u, u.rows)


class PrymReport(NamedTuple):
    # the field names are the keys of the "prym" object of `zgrass check`
    ring: bool
    sigma_invariant: bool
    isotropic: bool | None
    parity: int | None
    member: bool


def p0_membership(u):
    """Ring structure, sign invariance, and isotropy in one verdict.

    Isotropy is only defined at index zero; elsewhere it reports None and
    membership fails.
    """
    ring = is_ring_point(u)
    sigma = u.is_sigma_invariant()
    if u.charge == 0:
        rep = u.isotropy()
        iso, parity = rep.isotropic, rep.parity
    else:
        iso, parity = None, None
    return PrymReport(ring, sigma, iso, parity,
                      bool(ring and sigma and iso))


def stabilizer(u, n):
    """Basis of {f in span{z^-n..z^n} : f U inside U}, exactly.

    Constraints are linear: for each of the first len(rows) + n basis rows,
    the reduction of z^e times it must leave nothing visible.  Deeper tail
    monomials cannot escape the tail and impose nothing.  The basis is the
    kernel of those sparse constraints, one series per free exponent.
    """
    if not u.exact:
        raise ZgrassError("stabilizer needs an exact frame")
    exps = range(-n, n + 1)
    crows = []
    for b in u.basis(len(u.rows) + n):
        rems = [u.reduce(b.shift(e)) for e in exps]
        for ex in {ex for r in rems for ex in r.coeffs if ex >= -u.tail_j}:
            crows.append({e: r.coeffs[ex] for e, r in zip(exps, rems)
                          if ex in r.coeffs})
    return [LaurentSeries(v) for v in kernel(echelon(crows)[0], exps)]


class OrbitProfile(NamedTuple):
    # the field names are keys of the `zgrass orbit` report
    dims: tuple
    verdict: str  # "stable" | "inconclusive"
    value: int | None
    stabilizer: list  # the level-nmax basis every level is read from


def orbit_profile(u, nmax=12, odd_only=False):
    """Independent flow directions modulo the stabilizer, level by level.

    At level n the flows are z^-1..z^-n (odd exponents only on request);
    directions lying in the stabilizer act trivially and are quotiented
    away.  The profile of a ring point stabilizes at the number of gaps of
    its pole semigroup; the verdict is "stable" after three equal trailing
    values and never extrapolates beyond nmax.

    Every level is read off the one level-nmax stabilizer.  Both levels
    solve the exact condition f U inside U, each on its own window (the
    extra tail targets at nmax only constrain exponents above n), so the
    level-n stabilizer is the level-nmax one cut down to z^-n..z^n, and
    its overlap with the flows is the level-nmax stabilizer's overlap.  One
    echelon pass reads every overlap: with flow z^-i keyed to 2 nmax + 1 - i,
    past every other exponent, level n's is spanned by the rows whose pivot
    lies above 2 nmax - n.
    """
    if nmax < 1:
        raise ZgrassError(f"nmax must be at least 1, got {nmax}")
    stab = stabilizer(u, nmax)
    flows = [i for i in range(1, nmax + 1) if not (odd_only and i % 2 == 0)]
    key = {-i: 2 * nmax + 1 - i for i in flows}
    basis, _ = echelon(
        [{key.get(e, e): c for e, c in s.coeffs.items()} for s in stab])
    dims = [sum(i <= n for i in flows) - sum(p > 2 * nmax - n for p in basis)
            for n in range(1, nmax + 1)]
    stable = len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]
    return OrbitProfile(
        tuple(dims),
        "stable" if stable else "inconclusive",
        dims[-1] if stable else None,
        stab,
    )


def quotient_ring(u):
    """Even part of a sign-invariant ring point, in the halved variable.

    The result is the frame of the subring fixed by the sign flip, with
    z^2 rewritten as the new coordinate.
    """
    if not is_ring_point(u):
        raise NotRingPoint("subspace is not multiplicatively closed")
    even, _ = u.split_even_odd()
    return even


# -- involution normal form ----------------------------------------------------


def normalize_involution(s, prec=16):
    """Coordinate w(z) in which the involution z -> s(z) becomes the sign flip.

    s and w are series of valuation 1.  Requires linear part exactly -1 (any
    other involution fixing the origin is the identity) and verifies
    s(s(z)) = z on the sound range, raising NotInvolution otherwise.  Solved
    order by order: even orders are corrected, odd orders must already
    cancel -- the returned w is the unique solution with vanishing odd
    coefficients past the first.
    """
    z = LaurentSeries.monomial(1)
    if s.coeff(1) != -1:
        raise NotNormalizable("involution must have linear coefficient -1")
    delta = s.substitute(s) - z
    if delta.coeffs:
        raise NotInvolution(f"s(s(z)) - z = {delta}")
    w = z
    for k in range(2, prec + 1):
        delta = (w.substitute(s, prec=prec + 2) + w).coeff(k)
        if k % 2 == 0:
            if delta:
                w = w + LaurentSeries({k: -delta / 2})
        elif delta:
            raise NotNormalizable(
                f"odd-order obstruction {delta} at z^{k}"
            )
    return w
