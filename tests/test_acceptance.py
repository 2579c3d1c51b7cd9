"""Acceptance gate: the package's headline guarantees, one test each.

Every test here is exact -- zero tolerance -- and carries an explicit
wall-clock budget.  Randomized inputs use fixed seeds so a failure is
reproducible; nothing here is statistical.  Run with -v to get one
pass/fail line per guarantee.
"""

import time
from fractions import Fraction
from functools import cache

import pytest

from zgrass.errors import OddParity, ZgrassError
from zgrass.grassmann import (
    FramePoint,
    is_prym_flow,
)
from zgrass.hierarchy import (
    curve_constraint,
    gr0_constraint,
    p0_triple_constraint,
)
from zgrass.krichever import orbit_profile, quotient_ring, stabilizer
from zgrass.linalg import det_field, det_ring
from zgrass.pfaffian import pfaffian, section_square_check
from zgrass.series import LaurentSeries, exp_floor, pair_sigma, pair_std
from zgrass.symfun import TimePolynomial, partitions_upto, tconst, tvar
from zgrass.tau import (
    baker_residual_matrices,
    bilinear_residues,
    odd_part,
    tau_function,
    taubar,
)

import random

from frame_oracles import (
    assemble_even_odd,
    evaluate,
    exchange_defect,
    flipped,
)

ONE = LaurentSeries({0: Fraction(1)})


def mono(e, c=1):
    return LaurentSeries({e: Fraction(c)})


def series(d):
    return LaurentSeries({e: Fraction(c) for e, c in d.items()})


def rand_frac(rng, top=9):
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def rand_point(rng, window=(-8, 8), charge_zero=False, top=5):
    """Random exact frame: distinct valuations, sparse noise above each."""
    tail = rng.randint(1, 3)
    count = tail if charge_zero else rng.randint(1, min(3, tail + 2))
    lows = rng.sample(range(-tail, 0), min(count, tail))
    while len(lows) < count:
        lows.append(rng.choice([0, 1, 2]))
    gens = []
    for lo in sorted(set(lows)):
        coeffs = {lo: Fraction(rng.randint(1, 3))}
        for _ in range(rng.randint(0, 3)):
            e = rng.randint(lo + 1, top)
            coeffs[e] = coeffs.get(e, Fraction(0)) + Fraction(
                rng.randint(-3, 3))
        gens.append(LaurentSeries(coeffs))
    return FramePoint.from_gens(gens, tail, window)


def elapsed_under(t0, budget, label):
    dt = time.perf_counter() - t0
    assert dt < budget, f"{label} took {dt:.1f}s, budget {budget}s"
    print(f"{label}: ok in {dt:.2f}s (budget {budget}s)")


def test_pfaffian_squares_to_determinant():
    """Pf(M)^2 = det(M) exactly: 200 rational matrices (sizes 2-8) and
    alternating matrices over a two-parameter polynomial ring (sizes 2-6).

    Odd sizes have identically-zero determinant and the pfaffian routine
    declines them by design; the square law is asserted on even sizes.
    """
    t0 = time.perf_counter()
    rng = random.Random(101)
    for trial in range(200):
        n = 2 + trial % 7
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rand_frac(rng)
                m[i][j], m[j][i] = v, -v
        if n % 2:
            assert det_field(m) == 0
            with pytest.raises(ZgrassError):
                pfaffian(m)
        else:
            assert pfaffian(m) ** 2 == det_field(m)
    a, b = tvar(1, "a"), tvar(1, "b")
    for trial in range(30):
        n = (2, 4, 6)[trial % 3]
        m = [[tconst(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = (tconst(rng.randint(-2, 2))
                     + a * rng.randint(-2, 2) + b * rng.randint(-2, 2))
                m[i][j], m[j][i] = v, v * Fraction(-1)
        pf = pfaffian(m)
        assert pf * pf - det_ring(m) == tconst(0)
    elapsed_under(t0, 10, "pfaffian law")


def test_residue_pairing_laws():
    """Hemisymmetry and self-annihilation of the twisted pairing on 500
    random pairs; the twisted pairing is the plain one against the
    composition with -z; the sign flip is an involution."""
    t0 = time.perf_counter()
    rng = random.Random(202)
    minus_z = LaurentSeries({1: -1})
    for _ in range(500):
        f = LaurentSeries({
            e: rand_frac(rng) for e in rng.sample(range(-6, 7), 4)})
        g = LaurentSeries({
            e: rand_frac(rng) for e in rng.sample(range(-6, 7), 4)})
        assert pair_sigma(f, g) == -pair_sigma(g, f)
        assert pair_sigma(f, f) == 0
        assert pair_sigma(f, g) == pair_std(f, g.substitute(minus_z))
        assert f.flip().flip() == f
    elapsed_under(t0, 5, "pairing laws")


def test_single_exchange_relations():
    """Quadratic exchange relations between minors vanish exactly on 50
    random charge-zero frames, over all diagram pairs of weight <= 4 and
    every exchange slot.  The oracle reads each column set many times, so
    the test memoizes the frame's minors."""
    t0 = time.perf_counter()
    rng = random.Random(303)
    diagrams = [tuple(p) for p in partitions_upto(4)]
    for _ in range(50):
        u = rand_point(rng, window=(-6, 6), charge_zero=True)
        assert u.charge == 0
        u.minor = cache(u.minor)
        for la in diagrams:
            for lb in diagrams:
                n = max(len(la), len(lb), len(u.rows), 1)
                for slot in range(n):
                    assert exchange_defect(u, la, lb, slot) == 0
    elapsed_under(t0, 30, "exchange relations")


def test_flow_minor_matches_tau():
    """The leading minor after an exponential flow equals the tau
    polynomial evaluated at the flow parameters: 20 frames x 10 parameter
    sets, exact equality."""
    t0 = time.perf_counter()
    rng = random.Random(404)
    points = [rand_point(rng, window=(-16, 8), top=3) for _ in range(20)]
    for u in points:
        tau = tau_function(u)
        for _ in range(10):
            params = {
                k: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for k in rng.sample(range(1, 7), rng.randint(1, 4))
            }
            params = {k: c for k, c in params.items() if c}
            if not params:
                params = {1: Fraction(1)}
            g = exp_floor(
                LaurentSeries({-k: c for k, c in params.items()}),
                u.window[0])
            lhs = u.flow(g).plucker(())
            rhs = evaluate(tau, {("t", k): c for k, c in params.items()})
            assert lhs == rhs
    elapsed_under(t0, 60, "flow/tau oracle")


def test_series_and_frame_residuals_agree():
    """Bilinear residual series to weight 6 vanish exactly when the
    frame-level pairings do, and the second residual detects sign
    invariance, on a mixed corpus of eleven frames."""
    t0 = time.perf_counter()
    W = (-12, 12)
    corpus = [
        FramePoint.from_gens([ONE], 1, W),
        FramePoint.from_gens([ONE, mono(-2)], 3, W),
        FramePoint.from_gens([series({0: 1, 2: 1})], 1, W),
        FramePoint.from_gens([series({-2: 1, 0: 3})], 2, W),
        FramePoint.from_gens([ONE, series({-4: 1, -2: 1})], 5, W),
        FramePoint.from_gens([series({-1: 1, 0: 1})], 1, W),
        FramePoint.from_gens([series({0: 1, 1: 1})], 1, W),
        FramePoint.from_gens([series({-1: 1, 2: 1})], 1, W),
        FramePoint.from_gens([ONE, series({-2: 1, -1: 1})], 3, W),
        FramePoint.from_gens([series({-1: 1, 0: 3})], 1, W),
        FramePoint.from_gens([series({0: 1, 3: 1})], 1, W),
    ]
    invariants = 0
    for u in corpus:
        m1, m2 = baker_residual_matrices(u, count=6)
        r1, r2 = bilinear_residues((m1, m2), 6)
        inv = u.is_sigma_invariant()
        invariants += inv
        assert not r1
        assert not any(v for row in m1 for v in row)
        assert (not r2) == inv
        assert (not any(v for row in m2 for v in row)) == inv
    assert 3 <= invariants <= len(corpus) - 3
    elapsed_under(t0, 60, "residual equivalence")


def test_cusp_constraint_suites():
    """For the cuspidal frame (tau = t1) every constraint vanishes: pair
    constraints to weight 4 per diagram, single-diagram constraints to
    weight 5, triple constraints to weight 3 -- each evaluated through both
    routes.  A one-coefficient perturbation goes nonzero in all three
    families."""
    t0 = time.perf_counter()
    W = (-12, 12)
    cusp_tau = tau_function(FramePoint.from_gens([ONE], 1, W))
    assert cusp_tau == tvar(1)
    p3 = [tuple(p) for p in partitions_upto(3)]
    p4 = [tuple(p) for p in partitions_upto(4)]
    p5 = [tuple(p) for p in partitions_upto(5)]
    for la in p4:
        for lb in p4:
            h = gr0_constraint(la, lb, cusp_tau, route="hall")
            d = gr0_constraint(la, lb, cusp_tau, route="diff")
            assert h == d == 0
    for la in p5:
        h = curve_constraint(la, cusp_tau, route="hall")
        d = curve_constraint(la, cusp_tau, route="diff")
        assert h == d == 0
    for la in p3:
        for lb in p3:
            for lc in p3:
                h = p0_triple_constraint(la, lb, lc, cusp_tau, route="hall")
                d = p0_triple_constraint(la, lb, lc, cusp_tau, route="diff")
                assert h == d == 0
    perturbed = tconst(1) + tvar(1)
    for routes in ("hall", "diff"):
        assert gr0_constraint((), (), perturbed, route=routes) == -1
        assert curve_constraint((), perturbed, route=routes) == 1
        assert p0_triple_constraint((), (), (), perturbed,
                                    route=routes) == -1
    elapsed_under(t0, 300, "constraint suites")


def _semigroup_gaps(gens, top):
    hit = [False] * (top + 1)
    hit[0] = True
    for i in range(1, top + 1):
        hit[i] = any(hit[i - g] for g in gens if g <= i)
    return [i for i in range(1, top + 1) if not hit[i]], hit


def test_orbit_profiles_match_gap_oracle():
    """Orbit dimension profiles settle at the gap counts of the monomial
    supports -- 1 for degrees {2,3}, 2 for degrees {2,5} (also odd-only) --
    and stabilizer bases match direct membership solves."""
    t0 = time.perf_counter()
    W = (-12, 12)
    cusp = FramePoint.from_gens([ONE], 1, W)
    k25 = FramePoint.from_gens([ONE, mono(-2)], 3, W)
    for u, gens, expect in ((cusp, (2, 3), 1), (k25, (2, 5), 2)):
        gaps, hit = _semigroup_gaps(gens, 10)
        assert len(gaps) == expect
        prof = orbit_profile(u, nmax=10)
        assert prof.verdict == "stable" and prof.value == expect
        n = 6
        basis = stabilizer(u, n)
        degrees = sorted(-min(b.coeffs) if min(b.coeffs) < 0 else 0
                         for b in basis)
        assert degrees == [i for i in range(n + 1) if hit[i]]
        rows = u.basis(len(u.rows) + n + 2)
        for b in basis:
            for r in rows:
                assert u.contains(b * r)
    odd = orbit_profile(k25, nmax=10, odd_only=True)
    assert odd.verdict == "stable" and odd.value == 2
    elapsed_under(t0, 30, "orbit profiles")


def test_orthogonality_and_isotropy_geometry():
    """Complement geometry on 50 random frames: charge negation and
    biduality; self-duality coincides with certified isotropy on the
    charge-zero corpus; isotropy survives odd exponential flows and breaks
    under 1 + az."""
    t0 = time.perf_counter()
    rng = random.Random(808)
    zero_charge = []
    for _ in range(50):
        u = rand_point(rng, window=(-8, 8))
        dual = u.orthogonal()
        assert dual.charge == -u.charge
        assert dual.orthogonal().same_subspace(u)
        if u.charge == 0:
            zero_charge.append(u)
    zero_charge += [
        FramePoint.from_gens([ONE], 1, (-8, 8)),
        FramePoint.from_gens([series({-1: 1, 0: 2})], 1, (-8, 8)),
        FramePoint.from_gens([series({-1: 1, 0: 1}),
                              series({-2: 1, 1: 1})], 2, (-8, 8)),
    ]
    isotropic = []
    for u in zero_charge:
        iso = u.isotropy().isotropic
        assert iso == u.same_subspace(flipped(u.orthogonal()))
        if iso:
            isotropic.append(u)
    assert len(isotropic) >= 3
    for u in isotropic:
        g = exp_floor(series({-1: 2, -3: Fraction(1, 2), -5: 1}),
                      u.window[0])
        assert is_prym_flow(g)
        assert u.flow(g).isotropy().isotropic
        bad = u.flow(series({0: 1, 1: 1}))
        assert not bad.isotropy().isotropic
    elapsed_under(t0, 30, "isotropy geometry")


def test_family_square_structure():
    """Along the odd-flow family out of the standard flag the leading
    minor is exactly 1 -- an exact square with unit scale, hence a square
    to every parameter degree.  The square-root normal form of a moved
    family member's tau squares back through weight 8.  The parity-one
    cusp (tau = t1) admits no normal form; that is reported, not
    asserted."""
    t0 = time.perf_counter()
    win = (-13, 8)
    flows = LaurentSeries({-1: tvar(1, "a"), -3: tvar(3, "a")})
    g = exp_floor(flows, win[0])
    assert is_prym_flow(g)
    vacuum = FramePoint((), (), 0, win)
    section = vacuum.flow(g).plucker(())
    assert section == tconst(1)
    sq = section_square_check(section)
    assert sq.ok and sq.scale == 1 and sq.root == tconst(1)
    numeric = exp_floor(series({-1: Fraction(1, 2), -3: Fraction(-1, 3)}),
                        win[0])
    assert vacuum.flow(numeric).plucker(()) == 1

    g8 = LaurentSeries({
        e: c.with_cap(8) if isinstance(c, TimePolynomial) else c
        for e, c in g.coeffs.items()
    })
    pencil = FramePoint.from_gens([series({-1: 1, 0: 1})], 1, win)
    assert pencil.isotropy().parity == 0
    tau = tau_function(pencil.flow(g8), cap=8)
    nf = taubar(tau, 8)
    assert nf.scale == 1
    assert not (nf.root * nf.root * nf.scale - odd_part(tau))
    assert len(nf.root.terms) > 8

    cusp = FramePoint.from_gens([ONE], 1, win)
    assert cusp.isotropy().parity == 1
    cusp_tau = tau_function(cusp)
    with pytest.raises(OddParity):
        taubar(cusp_tau, 8)
    print("parity-one diagnostic: tau =", cusp_tau, "-- no square, as documented")
    elapsed_under(t0, 60, "family square structure")


def _halve(f):
    assert all(e % 2 == 0 for e in f.coeffs)
    return LaurentSeries({e // 2: c for e, c in f.coeffs.items()})


def test_split_assemble_and_quotients():
    """Even/odd split: charge additivity and exact round-trip on 30 random
    sign-invariant frames; even-part quotients of three monomial-support
    frames match the exponent-halving oracle."""
    t0 = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(30):
        we = rand_point(rng, window=(-5, 5), top=3)
        wo = rand_point(rng, window=(-5, 5), top=3)
        u = assemble_even_odd(we, wo, (-12, 12))
        assert u.is_sigma_invariant()
        assert u.charge == we.charge + wo.charge
        e2, o2 = u.split_even_odd()
        assert e2.same_subspace(we)
        assert o2.same_subspace(wo)

    W = (-16, 8)
    flag = FramePoint.from_gens([ONE], 0, (-8, 8))
    cusp_w = FramePoint.from_gens([ONE], 1, (-8, 8))
    examples = [
        (FramePoint.from_gens([ONE], 1, W), flag),
        (FramePoint.from_gens([ONE, mono(-2)], 3, W), flag),
        (FramePoint.from_gens([ONE, mono(-4), mono(-6), mono(-7), mono(-8)],
                              9, W), cusp_w),
    ]
    for u, frozen in examples:
        q = quotient_ring(u)
        even_rows = [r for r in u.rows if all(e % 2 == 0 for e in r.coeffs)]
        oracle = FramePoint.from_gens(
            [_halve(r) for r in even_rows] or [ONE],
            u.tail_j // 2, q.window)
        assert q.same_subspace(oracle)
        assert q.same_subspace(frozen)
    elapsed_under(t0, 15, "split and quotients")
