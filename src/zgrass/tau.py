"""Tau polynomials of frame points, square-root normal forms, Baker series.

The tau polynomial of a point collects its minors against the Schur basis
in the times t: tau_U = sum of plucker(lam) * schur_lam over the partitions
plucker_support picks -- the box of an exact frame, pruned to the weight cap
the caller reads.  The universal flow exp(sum t_k z^-k) turns the vacuum
minor into tau, which callers check on one block of the rows; a flow by
g = exp(sum c_k z^-k) shifts the times (Segal-Wilson 1985): tau_gU(t) is
tau_U(t + c), and the vacuum minor of gU is tau_U(c) (time_shift).

The square-root normal form factors the odd-times restriction of tau as
scale * root^2 through a chosen weight; it exists exactly when tau does not
vanish at the origin.  Odd parity is one cause of tau(0) = 0, not the only
one: z^3 k[z^-3, z^-5] is isotropic of parity 0 and its tau vanishes there.

The Baker series of a point pairs its basis rows with the universal
polynomial blocks p_i(t): psi(z, t) = z * sum_i u_i(z) p_i(t).  Pairing a
point's Baker series against the one of its residue-dual gives two bilinear
residuals: the first vanishes identically by duality, and the second --
evaluated at -z -- vanishes precisely on sign-invariant points, so its
lowest monomial is an honest obstruction witness.  Both residual
polynomials are read off the frame-level residual matrices M as
sum_ij M[i][j] p_{i+1}(t) p_{j+1}(s), in the second times s (the paper's
t'); assembling the two Baker series and taking the residue of their
product is the slower route the tests keep as an oracle.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import OddParity, ZgrassError
from .grassmann import _det
from .series import LaurentSeries, pair_std
from .symfun import (
    TimePolynomial,
    partitions_in_box,
    schur,
    schur_p,
    sqrt_series,
    tconst,
    tsum,
    tvar,
)


def plucker_support(u, cap=None):
    """The nonzero (partition, coordinate) pairs of an exact frame, through
    the cap; an approximate frame has no box and is refused.

    A nonzero minor must match every implicit tail row with its own column
    and sample columns inside the row support, so the support lives in the
    box of at most len(rows) parts, each at most maxtop + 1 - charge,
    enumerated only to weight cap, and read straight off the canonical rows
    (pluckers).
    """
    if not u.exact:
        raise ZgrassError("tau needs an exact frame")
    width = max((r.top for r in u.rows), default=0) + 1 - u.charge
    lams = partitions_in_box(len(u.rows), width, cap)
    return [(lam, v) for lam, v in zip(lams, u.pluckers(lams)) if v]


def tau_function(u, cap=None):
    """The tau polynomial sum of plucker(lam) * schur_lam, through the cap.

    The sum runs over plucker_support(u, cap): exact when cap is None, and
    known through weight cap otherwise.
    """
    return tsum((schur(lam.parts) * v for lam, v in plucker_support(u, cap)),
                cap)


def time_shift(tau, flows, cap):
    """tau(t + c) through the cap and tau(c), exact (a rational when
    constant), from a point's exact tau, for the flow exp(sum c_k z^-k):
    flows[k] is c_k, a rational, or a name for the variable c_k of weight k."""
    c = {k: tvar(k, v) if isinstance(v, str) else tconst(v)
         for k, v in flows.items()}
    powers, moved, at_c = {}, [], []
    for mono, coef in tau.terms.items():
        up, down = tconst(coef).with_cap(cap), tconst(coef)
        for (_, k), m in mono:
            if (k, m) not in powers:
                ck = c.get(k, TimePolynomial())
                powers[k, m] = (tvar(k) + ck).with_cap(cap) ** m, ck ** m
            up, down = up * powers[k, m][0], down * powers[k, m][1]
        moved.append(up)
        at_c.append(down)
    section = tsum(at_c, None)
    constant = set(section.terms) <= {()}
    return tsum(moved, cap), section.constant_term() if constant else section


def times_flow(cap, floor):
    """exp(sum_k t_k z^-k) down to the floor, coefficient weights capped.

    The z^-n coefficient is the complete homogeneous generating polynomial
    p_n of the times, which has weight n; since p_n is homogeneous, every
    coefficient past the cap is dropped entirely.  The floor stays for the
    benchmark's answer check (perfbench/workloads.py, _check_tau), the one
    caller that cuts above -cap: it flows a point once to its window floor.
    """
    deep = min(cap, -floor)
    return LaurentSeries(
        {-n: schur_p(n, "t").with_cap(cap) for n in range(0, deep + 1)}
    )


def tau_flow_consistency(u, cap):
    """The vacuum minor of the exact point flowed by exp(sum t_k z^-k),
    known through the cap (lifted into the capped ring when rational): it
    equals tau_function(u).with_cap(cap).

    Capped, the flow is G = 1 + p_1 z^-1 + ... + p_cap z^-cap.  The flowed
    basis is the m rows times G, then z^-j G for j > tail_j, sampled at the
    columns charge - 1, charge - 2, ..., whose first m run down to -tail_j.
    z^-j G is 1 at -j and zero above, so the tail rows vanish on those m
    columns and are unit triangular on the rest: the minor is block
    triangular, the m-square block of the rows times G there at any window.
    """
    if not u.exact:
        raise ZgrassError("the flow check needs an exact frame")
    g, cols = times_flow(cap, -cap), range(u.charge - 1, -u.tail_j - 1, -1)
    minor = _det([[row.get(c, Fraction(0)) for c in cols]
                  for row in ((r * g).coeffs for r in u.rows)])
    return (minor if isinstance(minor, TimePolynomial)
            else tconst(minor).with_cap(cap))


def odd_part(tau):
    """Restriction to the odd-index times: t_2 = t_4 = ... = 0.

    Variables of other families (parameters, second time sets) pass through
    untouched.
    """
    data = {
        m: c
        for m, c in tau.terms.items()
        if all(f != "t" or k % 2 == 1 for (f, k), _ in m)
    }
    return TimePolynomial(data, tau.maxweight)


class TauBar(NamedTuple):
    scale: Fraction
    root: TimePolynomial


def taubar(tau, weight):
    """Square-root normal form of the odd-times restriction of tau.

    Returns (scale, root) with tau|odd = scale * root^2 through the weight
    and root(0) = 1.  The form exists exactly when tau(0) != 0, and a tau
    that vanishes at the origin raises OddParity.  Odd parity is one cause
    of that, not the only one; the caller that holds the point reads the
    cause off its isotropy (as `zgrass family-square` does).
    """
    restricted = odd_part(tau)
    c = restricted.constant_term()
    if c == 0:
        raise OddParity("tau vanishes at the origin")
    u = restricted * (Fraction(1) / c)
    return TauBar(c, sqrt_series(u, weight))


# -- Baker series and bilinear residuals --------------------------------------


def baker(u, weight):
    """Baker series of the point, as (basis row, polynomial block) pairs.

    Block i is the universal polynomial p_i in the times t, capped at the
    weight; rows run through the canonical basis in basis order
    (explicit rows by descending pivot, then tail monomials).  Blocks beyond
    the weight are homogeneous of too-high weight and are omitted.  The full
    object is psi(z, t) = z * sum_i row_i(z) * block_i(t).
    """
    if not u.exact:
        raise ZgrassError("Baker series needs an exact frame")
    rows = u.basis(weight)
    return tuple(
        (rows[i], schur_p(i + 1).with_cap(weight)) for i in range(weight)
    )


def baker_residual_matrices(u, count=None):
    """First and second bilinear residual matrices against the dual point.

    first[i][j] = Res u_i w_j vanishes identically because the dual point w
    is the residue orthogonal; second[i][j] = -Res (flip u_i) w_j vanishes
    exactly when the point is stable under the sign flip, and otherwise its
    lowest nonzero entry is an honest obstruction witness.  count defaults
    to len(u.rows) + 2.  The bases are prefix-stable, so the matrices of a
    smaller count are the leading blocks of these.
    """
    w = u.orthogonal()
    if count is None:
        count = len(u.rows) + 2
    ub = u.basis(count)
    wb = w.basis(count)
    first = [[pair_std(a, b) for b in wb] for a in ub]
    second = [[-pair_std(fa, b) for b in wb] for fa in [a.flip() for a in ub]]
    return first, second


def bilinear_residues(matrices, weight):
    """The two bilinear residuals Res psi(+-z, t) psi*(z, s) dz / z^2.

    Both are read off the residual matrices (baker_residual_matrices of
    count at least weight - 1) through the weight:
    sum_ij first/second[i][j] p_{i+1}(t) p_{j+1}(s), the product of the two
    Baker series with the rows paired out.  The first residual vanishes
    identically (duality); the second vanishes exactly when the point is
    sign-invariant -- its lowest nonzero monomial in (t, s) is the
    obstruction witness.
    """
    if len(matrices[0]) < weight - 1:
        raise ZgrassError("residual matrices too small for the weight")
    ps = [schur_p(k, "t").with_cap(weight) for k in range(1, weight + 1)]
    qs = [schur_p(k, "s").with_cap(weight) for k in range(1, weight + 1)]
    return tuple(
        tsum((ps[i] * qs[j] * row[j] for i, row in enumerate(m)
              for j in range(weight - i - 1) if row[j]), weight)
        for m in matrices)
