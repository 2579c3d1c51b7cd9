"""Pfaffians of alternating pairing matrices and their square-root checks.

The residue pairing twisted by the sign flip z -> -z is hemisymmetric, so
Gram matrices of frame vectors are alternating and carry a Pfaffian -- the
natural square root of the determinant.  The sign flip is the only twist
used here; another involution is brought to it first by
krichever.normalize_involution.  This module computes Pfaffians over any of
the coefficient rings in use (rationals, time polynomials), certifies the
duality pairing between two transverse points, and decides exactly whether a
polynomial family of vacuum minors is a perfect square times a scalar.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import NotAlternating, ZgrassError
from .grassmann import coset_reps
from .linalg import det_field
from .series import pair_sigma, sigma0
from .symfun import TimePolynomial, _mono_weight, sqrt_series, tconst


def pfaffian(m):
    """Pfaffian of an alternating matrix, by expansion along the first row.

    Subsets of indices are memoized, so the cost is O(2^n) rather than the
    naive double factorial; fine for the matrix sizes pairing computations
    produce.
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

    return pf(tuple(range(n)))


def gram_matrix(vectors):
    """Alternating Gram matrix of the residue pairing twisted by the flip."""
    s = sigma0()
    n = len(vectors)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = pair_sigma(vectors[i], vectors[j], s)
            m[i][j] = v
            m[j][i] = -v
    return m


def gram_pfaffian(vectors):
    return pfaffian(gram_matrix(vectors))


class DualityReport(NamedTuple):
    dual: bool
    matrix: list


def mti_duality_check(a, b):
    """Whether the twisted pairing puts A/(A cap B) and B/(B cap A) in duality.

    The matrix pairs the B-side representatives against the A-side ones; the
    verdict is its invertibility (square and with nonzero determinant, taken
    over the fraction field).
    """
    s = sigma0()
    reps_a = coset_reps(a, b)
    reps_b = coset_reps(b, a)
    matrix = [
        [pair_sigma(rb, ra, s) for ra in reps_a] for rb in reps_b
    ]
    if len(reps_a) != len(reps_b):
        return DualityReport(False, matrix)
    return DualityReport(det_field(matrix) != 0, matrix)


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
