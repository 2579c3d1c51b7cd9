"""Oracles and helpers the tests share: no zgrass module calls these.

exchange_defect checks the quadratic Pluecker relations between minors,
assemble_even_odd inverts FramePoint.split_even_odd, coset_reps picks
representatives of A/(A cap B), mti_duality_check pairs two transverse points
through them, and gram_pfaffian is the Pfaffian of the Gram matrix
gram_matrix.  flipped is the image of a point under the sign flip, and
evaluate reads a time polynomial at rational times.  nullspace_complement is
the residue complement by a dense nullspace and a second elimination, and
echelon_calls counts the rows of every echelon pass.  prym_flow_full is the
Prym-flow test on the whole product g(z) g(-z).  flow_exponential and
flowed_tau flow a point by a family's exponential, the route `zgrass
family-square` took before it read flows as time shifts; flowed_frame_tau
sums a flowed frame's coordinates into its tau, which tau.plucker_support
refuses, and flowed_vacuum_minor flows a point by the universal exponential,
the route `zgrass tau`'s flow check took before it read one block of the
rows.  hall_oracle is the Hall pairing as a Fraction sum, the loop
symfun.hall ran before it added integer numerators.  hirota forms the
Hirota bilinear derivative D^alpha tau.tau and kp_defect the left side of the
KP equation in Hirota form, an oracle for tau polynomials that uses only
TimePolynomial.differentiate.
"""

import importlib
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from typing import NamedTuple

from zgrass.errors import InsufficientPrecision, WindowTooSmall, ZgrassError
from zgrass.grassmann import DEFAULT_WINDOW, FramePoint, _chart_columns
from zgrass.linalg import det_field, echelon, nullspace
from zgrass.pfaffian import pfaffian
from zgrass.series import LaurentSeries, exp_floor, pair_sigma
from zgrass.symfun import (
    Partition,
    TimePolynomial,
    partitions_upto,
    schur,
    tconst,
    tsum,
    tvar,
)
from zgrass.tau import times_flow


def flipped(u):
    """The image of the point under z -> -z (the tail maps onto itself).

    flipped(u.orthogonal()) is the complement of u under the twisted
    pairing pair_sigma."""
    return FramePoint.from_gens(
        [r.flip() for r in u.rows], u.tail_j, u.window, allow_dependent=True,
    )


def nullspace_complement(u):
    """FramePoint.orthogonal as it was before it read its frame off one
    sparse kernel: the dense kernel of the pairing matrix over the exponents
    e in [floor, tail_j), then from_gens on its vectors; kept as an
    oracle.  As orthogonal, it reads the window of an approximate frame
    only."""
    J = u.tail_j
    floor_e = -(max(r.top for r in u.rows) + 1) if u.rows else J
    if not u.exact and floor_e < u.window[0]:
        raise WindowTooSmall("complement tail starts below the window")
    cand = range(floor_e, J)
    mat = [[row.coeffs.get(-1 - e, Fraction(0)) for e in cand]
           for row in u.rows]
    gens = [LaurentSeries({e: v[k] for k, e in enumerate(cand)})
            for v in nullspace(mat, len(cand))]
    w = FramePoint.from_gens(gens, -floor_e, u.window, allow_dependent=True)
    return FramePoint(w.rows, w.pivots, w.tail_j, w.window, exact=u.exact)


def prym_flow_full(g, floor):
    """grassmann.is_prym_flow as it was before it formed only the exponents
    it reads: the whole defect g(z) g(-z) - 1, required to vanish from
    floor + top(g) up, for g cut at the floor; kept as an oracle."""
    defect = g * g.flip() - 1
    return all(e < floor + g.top for e in defect.coeffs)


def flow_exponential(flows, floor):
    """exp(sum c_k z^-k) as an exact series, written out down to the floor;
    c_k is a rational, or the weight-k variable of the family a string
    names."""
    return exp_floor(LaurentSeries({
        -k: tvar(k, c) if isinstance(c, str) else Fraction(c)
        for k, c in flows.items()}), floor)


def flowed_tau(base, flows, floor, weight):
    """(tau through the weight, vacuum minor) of the base flowed by
    flow_exponential(flows, floor) in the window (floor, -floor), as `zgrass
    family-square` computed them before it read flows as time shifts: the
    tau off the flow with every coefficient capped at the weight, summed by
    flowed_frame_tau.  Both equal tau.time_shift's when the base's tau box
    weight is at most -floor; a weight above -floor + charge raises
    WindowTooSmall."""
    start = FramePoint(base.rows, base.pivots, base.tail_j, (floor, -floor))
    g = flow_exponential(flows, floor)
    moved = start.flow(LaurentSeries({
        e: c.with_cap(weight) if isinstance(c, TimePolynomial) else c
        for e, c in g.coeffs.items()}))
    return flowed_frame_tau(moved, weight), start.flow(g).plucker(())


def flowed_frame_tau(u, cap):
    """sum schur(lam) * u.plucker(lam) over every partition through the
    cap: the tau of a flowed frame, known through the cap, which
    tau.plucker_support refuses since such a frame has no support box."""
    return tsum((schur(lam.parts) * v for lam in partitions_upto(cap)
                 if (v := u.plucker(lam))), cap)


def flowed_vacuum_minor(u, cap):
    """tau.tau_flow_consistency as it was before it read one block of the
    rows: the vacuum minor of the exact point u flowed by the universal
    exp(sum t_k z^-k), cut at a window floor at most -cap so that no
    coefficient through the cap is dropped, a rational minor lifted into
    the capped ring; kept as an oracle."""
    floor = min(u.window[0], -cap)
    start = FramePoint(u.rows, u.pivots, u.tail_j, (floor, u.window[1]))
    minor = start.flow(times_flow(cap, floor)).plucker(())
    if isinstance(minor, TimePolynomial):
        return minor
    return tconst(minor).with_cap(cap)


def hall_oracle(f, g):
    """symfun.hall as it was before it added integers: one Fraction sum
    over f's terms, each matched term scaled by its norm
    prod_k m_k!/k^m_k, with the same two precision refusals."""
    for a, b in ((f, g), (g, f)):
        if b.maxweight is not None and a.weight() > b.maxweight:
            raise InsufficientPrecision(
                f"pairing needs weight {a.weight()}, cap is {b.maxweight}")
    total = Fraction(0)
    for m, cf in f.terms.items():
        cg = g.terms.get(m)
        if cg:
            total += cf * cg * prod(Fraction(factorial(mult), k ** mult)
                                    for (_, k), mult in m)
    return total


def echelon_calls(monkeypatch):
    """Record the row count of every echelon pass, wherever a zgrass
    module binds echelon; returns the list the calls append to."""
    calls = []

    def counting(rows, *args):
        rows = list(rows)
        calls.append(len(rows))
        return echelon(rows, *args)

    for name in ("linalg", "grassmann", "krichever"):
        mod = importlib.import_module(f"zgrass.{name}")
        if hasattr(mod, "echelon"):
            monkeypatch.setattr(mod, "echelon", counting)
    return calls


def evaluate(poly, assign):
    """Value of poly at rational times {(family, k): value}; absent times
    are 0."""
    total = Fraction(0)
    for m, c in poly.terms.items():
        v = c
        for var, mult in m:
            v *= Fraction(assign.get(var, 0)) ** mult
        total += v
    return total


def _derive(tau, orders):
    for k, n in orders:
        for _ in range(n):
            tau = tau.differentiate("t", k)
    return tau


def hirota(tau, alpha):
    """D^alpha tau.tau for alpha = {k: order} in the times t: the sum over
    beta <= alpha of prod_k C(alpha_k, beta_k) (-1)^|alpha - beta| times
    d^beta tau * d^(alpha - beta) tau.  A tau known through weight c gives
    a result known through c - sum_k k * alpha_k."""
    ks = sorted(alpha)
    acc = TimePolynomial()
    for beta in product(*(range(alpha[k] + 1) for k in ks)):
        rest = [alpha[k] - b for k, b in zip(ks, beta)]
        sign = -1 if sum(rest) % 2 else 1
        c = sign * prod(comb(alpha[k], b) for k, b in zip(ks, beta))
        acc = acc + _derive(tau, zip(ks, beta)) * _derive(tau, zip(ks, rest)) * c
    return acc


def kp_defect(tau):
    """(D1^4 + 3 D2^2 - 4 D1 D3) tau.tau, zero exactly when tau satisfies
    the first equation of the KP hierarchy (Date, Jimbo, Kashiwara, Miwa
    1982); known through the cap of tau less 4."""
    return (hirota(tau, {1: 4}) + hirota(tau, {2: 2}) * 3
            - hirota(tau, {1: 1, 3: 1}) * 4)


def assemble_even_odd(we, wo, window=DEFAULT_WINDOW):
    """Rebuild the z-space point from even and odd w-space components.

    Inverse of split_even_odd: w^m goes back to z^{2m} and z^{2m+1}
    respectively; tail monomials that the combined tail cannot cover become
    explicit generators and are re-absorbed by the canonical frame.
    """
    gens = [
        LaurentSeries({2 * e: c for e, c in r.coeffs.items()}) for r in we.rows
    ] + [
        LaurentSeries({2 * e + 1: c for e, c in r.coeffs.items()})
        for r in wo.rows
    ]
    je, jo = we.tail_j, wo.tail_j
    jz = max(2 * je + 1, 2 * jo)
    for k in range(je + 1, jz // 2 + 1):
        gens.append(LaurentSeries.monomial(-2 * k))
    for i in range(jo + 1, (jz + 1) // 2 + 1):
        gens.append(LaurentSeries.monomial(-(2 * i - 1)))
    return FramePoint.from_gens(
        gens,
        jz,
        window,
        allow_dependent=True,
    )


def exchange_defect(u, lam_a, lam_b, slot=0):
    """Single-exchange quadratic relation between two minors of the frame.

    For the column tuples S, T of the two diagrams (padded to a common
    length in the charge chart), the product det(S) det(T) equals the sum
    over positions b of det(S with slot replaced by T[b]) times det(T with
    b replaced by S[slot]); replacements keep their positions, so repeated
    columns kill terms and no re-sorting signs appear.  This returns the
    difference, which vanishes identically on every frame.
    """
    lam_a, lam_b = Partition(lam_a), Partition(lam_b)
    n = max(len(lam_a), len(lam_b), len(u.rows), slot + 1)
    cs = _chart_columns(lam_a, u.charge, n)
    ct = _chart_columns(lam_b, u.charge, n)
    total = u.minor(cs) * u.minor(ct)
    for b in range(n):
        s2, t2 = list(cs), list(ct)
        s2[slot], t2[b] = ct[b], cs[slot]
        total -= u.minor(tuple(s2)) * u.minor(tuple(t2))
    return total


def coset_reps(a, b):
    """Representatives of a basis of A/(A intersect B), descending pivot.

    Both points must be exact.  Candidates are A's basis rows down to the
    deeper of the two tails; a candidate survives when its B-remainder is
    independent of the remainders already taken.
    """
    if not (a.exact and b.exact):
        raise ZgrassError("coset representatives need exact frames")
    cands = a.basis(len(a.rows) + max(0, b.tail_j - a.tail_j))
    _, kept = echelon(
        [b.reduce(v).drop_below(-b.tail_j).coeffs for v in cands]
    )
    return [cands[i] for i in kept]


def gram_matrix(vectors):
    """Alternating Gram matrix of the residue pairing twisted by the flip."""
    n = len(vectors)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = pair_sigma(vectors[i], vectors[j])
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
    reps_a = coset_reps(a, b)
    reps_b = coset_reps(b, a)
    matrix = [
        [pair_sigma(rb, ra) for ra in reps_a] for rb in reps_b
    ]
    if len(reps_a) != len(reps_b):
        return DualityReport(False, matrix)
    return DualityReport(det_field(matrix) != 0, matrix)
