"""Pfaffians of alternating pairing matrices and their square-root checks.

The residue pairing twisted by the sign flip z -> -z is hemisymmetric, so
Gram matrices of frame vectors are alternating and carry a Pfaffian -- the
natural square root of the determinant.  This module computes Pfaffians over
any of the coefficient rings in use (rationals, time polynomials) by skew
elimination, O(n^3) ring operations, and decides exactly whether a
polynomial family of vacuum minors is a perfect square times a scalar.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import NotAlternating, ZgrassError
from .linalg import _is_unit
from .series import _inv_coeff
from .symfun import TimePolynomial, _mono_weight, sqrt_series, tconst


def pfaffian(m):
    """Pfaffian of an alternating matrix, by skew (Parlett-Reid) elimination.

    Row 0 pivots on its first unit entry a[0][j] (linalg._is_unit), swapped
    into column 1 with a sign flip; the Pfaffian is that pivot times the
    Pfaffian of B + (v u^T - u v^T) / a[0][1], where B is the trailing block
    and u, v are rows 0 and 1 past column 1.  A zero row gives 0.  Over
    int or Fraction every nonzero entry is a unit, so this costs O(n^3).  Ring
    entries with no unit pivot fall back to _pfaffian_memo, the expansion
    along the first row memoized on index subsets, O(2^n).
    """
    n = len(m)
    if n % 2:
        raise ZgrassError("pfaffian needs an even-dimensional matrix")
    for i in range(n):
        if len(m[i]) != n:
            raise NotAlternating("matrix is not square")
        if m[i][i]:
            raise NotAlternating(f"nonzero diagonal entry at {i}")
        for j in range(i + 1, n):
            if m[i][j] + m[j][i]:
                raise NotAlternating(f"entries ({i},{j}) and ({j},{i}) do not cancel")
    a = [list(r) for r in m]
    pf = Fraction(1)
    try:
        for k in range(0, n, 2):
            u = a[k]
            j = next((c for c in range(k + 1, n) if _is_unit(u[c])), None)
            if j is None:
                if any(u[k + 1:]):
                    raise ZgrassError("no unit pivot in row")
                return Fraction(0)
            if j != k + 1:
                a[k + 1], a[j] = a[j], a[k + 1]
                for r in a[k:]:
                    r[k + 1], r[j] = r[j], r[k + 1]
                pf = -pf
            v = a[k + 1]
            pf = pf * u[k + 1]
            pinv = _inv_coeff(u[k + 1])
            for i in range(k + 2, n):
                ui, vi = u[i] * pinv, v[i] * pinv
                if not (ui or vi):
                    continue
                for j in range(i + 1, n):
                    x = a[i][j] + vi * u[j] - ui * v[j]
                    a[i][j], a[j][i] = x, -x
    except ZgrassError:
        return _pfaffian_memo(m)
    return pf


def _pfaffian_memo(m):
    """Expansion along the first row, memoized on index subsets: O(2^n)."""
    memo = {}

    def pf(idx):
        if not idx:
            return Fraction(1)
        if idx in memo:
            return memo[idx]
        i0 = idx[0]
        rest = idx[1:]
        acc = Fraction(0)
        for k, j in enumerate(rest):
            a = m[i0][j]
            if a:
                sub = rest[:k] + rest[k + 1:]
                term = a * pf(sub)
                acc = acc - term if k % 2 else acc + term
        memo[idx] = acc
        return acc

    return pf(tuple(range(len(m))))


class SquareCheck(NamedTuple):
    ok: bool
    root: TimePolynomial | None
    scale: Fraction
    witness: TimePolynomial | None


def section_square_check(q):
    """Decide exactly whether q = scale * r^2 for a polynomial r with r(0)=1.

    The input must be an exact polynomial: in a weight-capped ring every unit
    is a square up to the cap, so the question is only meaningful without a
    cap.  Returns the normalized root and the scalar on success; on failure
    the witness is the obstruction -- the top component when its weight is
    odd, otherwise the lowest-weight component of r^2 - q/scale for the
    candidate root r.  Never raises on a decidable input.
    """
    if isinstance(q, (int, Fraction)):
        q = tconst(q)
    if not q.exact:
        raise ZgrassError("squareness is only decidable for exact polynomials")
    scale = q.constant_term()
    if scale == 0:
        return SquareCheck(False, None, Fraction(0), None)
    u = q * (Fraction(1) / scale)
    w = u.weight()
    if w == 0:
        return SquareCheck(True, tconst(1), scale, None)
    if w % 2:
        return SquareCheck(False, None, scale, u.component(w))
    r = sqrt_series(u, w // 2)
    defect = r * r - u
    if not defect:
        return SquareCheck(True, r, scale, None)
    wmin = min(_mono_weight(m) for m in defect.terms)
    return SquareCheck(False, None, scale, defect.component(wmin))
