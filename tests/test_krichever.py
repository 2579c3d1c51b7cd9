"""Closure certification, stabilizers, orbit profiles, involution normal form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgrass import krichever
from zgrass.errors import (
    DependentGenerators,
    NotClosed,
    NotInvolution,
    NotNormalizable,
    NotRingPoint,
    NotSigmaInvariant,
    WindowTooSmall,
    ZgrassError,
)
from zgrass.grassmann import FramePoint
from zgrass.krichever import (
    CurveData,
    is_ring_point,
    normalize_involution,
    orbit_profile,
    p0_membership,
    quotient_ring,
    span_closure,
    stabilizer,
)
from zgrass.linalg import nullspace
from zgrass.series import LaurentSeries

from frame_oracles import axpy_entries, echelon_calls

W = (-8, 8)
ONE = LaurentSeries.one()


def mono(e, c=1):
    return LaurentSeries.monomial(e, Fraction(c))


def cusp():
    return FramePoint.from_gens([ONE], 1, W)


def k25():
    return FramePoint.from_gens([ONE, mono(-2)], 3, W)


def pencil():
    return FramePoint.from_gens([mono(-1) + ONE], 1, W)


class TestSpanClosure:
    def test_cusp_ring(self):
        u = span_closure([mono(-2), mono(-3)], W)
        assert u.exact
        assert u.charge == 0
        assert u.same_subspace(cusp())

    def test_two_five_ring(self):
        u = span_closure([mono(-2), mono(-5)], W)
        assert u.exact
        assert u.charge == -1
        assert u.same_subspace(k25())

    def test_full_polynomial_ring(self):
        u = span_closure([mono(-1)], W)
        assert u.exact
        assert u.charge == 1
        assert u.same_subspace(FramePoint.from_gens([ONE], 0, W))

    def test_narrow_window_still_certifies(self):
        u = span_closure([mono(-2), mono(-5)], (-5, 5))
        assert u.exact
        assert u.same_subspace(FramePoint.from_gens([ONE, mono(-2)], 3, (-5, 5)))

    def test_module_over_ring(self):
        data = CurveData((mono(-2), mono(-3)), module_gens=(mono(-1),))
        u = span_closure(data, W)
        assert u.exact
        assert u.charge == -1
        assert u.same_subspace(FramePoint.from_gens([mono(-1)], 2, W))
        assert not is_ring_point(u)

    def test_persistent_defect_is_refused(self):
        # the span of k[z^-2 + z^-1, z^-3] never contains z^-2 itself, so
        # no window certifies a monomial tail
        for window in (W, (-24, 24)):
            with pytest.raises(WindowTooSmall) as exc:
                span_closure([mono(-2) + mono(-1), mono(-3)], window)
            assert str(exc.value) == krichever.UNCERTIFIED

    def test_uncertifiable_run_raises(self):
        with pytest.raises(NotClosed):
            span_closure([mono(-2)], W)
        with pytest.raises(NotClosed):
            span_closure([mono(-3), mono(-7)], (-6, 6))

    def test_bad_generators(self):
        with pytest.raises(ZgrassError):
            span_closure([ONE + mono(1)], W)
        with pytest.raises(NotClosed):
            span_closure([], W)
        with pytest.raises(WindowTooSmall):
            span_closure(
                CurveData((mono(-2), mono(-3)), module_gens=(mono(-10),)), W
            )

    def test_deterministic(self):
        a = span_closure([mono(-2), mono(-3)], W)
        b = span_closure([mono(-2), mono(-3)], W)
        assert a.pivots == b.pivots and a.same_subspace(b)


def two_pass_span_closure(gens, window, module_gens=()):
    """span_closure as it was when its certified point re-eliminated every
    product over the shallower tail; kept as an oracle."""
    lo = window[0]
    products = []
    for m in list(module_gens) or [ONE]:
        krichever._expand(m, list(gens), -lo + m.valuation(), products)
    full = FramePoint.from_gens(products, -lo, window, allow_dependent=True)
    achieved = {-p for p in full.pivots} | set(range(full.tail_j + 1, -lo + 1))
    top = max(achieved)
    jstar = top
    while jstar - 1 in achieved:
        jstar -= 1
    if top - jstar + 1 < min(krichever._cert_need(g) for g in gens):
        raise NotClosed("run too short")
    if all(full.contains(mono(-j)) for j in range(jstar, top + 1)):
        point = FramePoint.from_gens(
            products, jstar - 1, window, allow_dependent=True
        )
        if krichever._closed_under(point, gens):
            return point
    raise WindowTooSmall(krichever.UNCERTIFIED)


@st.composite
def semigroup_curves(draw):
    """Two or three ring generators z^-a (a in 2..5), some with lower-order
    terms, and 0-2 module generators with poles of order at most 2."""
    ring = []
    for a in draw(st.lists(st.integers(2, 5), min_size=2, max_size=3,
                           unique=True)):
        extra = draw(st.one_of(
            st.just({}),
            st.dictionaries(st.integers(-a + 1, 2), st.integers(-2, 2),
                            max_size=2),
        ))
        ring.append(LaurentSeries({**extra, -a: 1}))
    mods = draw(st.lists(
        st.dictionaries(st.integers(-2, 2), st.integers(-2, 2), min_size=1,
                        max_size=3).map(LaurentSeries).filter(bool),
        max_size=2,
    ))
    return ring, mods


def frame_fields(u):
    return u.rows, u.pivots, u.tail_j, u.window, u.exact


class TestSpanClosureOracle:
    @settings(max_examples=100, deadline=None)
    @given(semigroup_curves())
    def test_matches_two_pass(self, curve):
        ring, mods = curve
        window = (-12, 6)
        try:
            want = frame_fields(two_pass_span_closure(ring, window, mods))
        except (NotClosed, WindowTooSmall) as exc:
            with pytest.raises(type(exc)):
                span_closure(CurveData(tuple(ring), tuple(mods)), window)
            return
        got = span_closure(CurveData(tuple(ring), tuple(mods)), window)
        assert frame_fields(got) == want


class TestRingPoint:
    def test_recognizes_rings(self):
        assert is_ring_point(cusp())
        assert is_ring_point(k25())
        assert is_ring_point(FramePoint.from_gens([ONE], 0, W))

    def test_rejects_non_rings(self):
        assert not is_ring_point(FramePoint.vacuum(W))  # no unit
        assert not is_ring_point(pencil())
        bad = FramePoint.from_gens([ONE, mono(-2) + mono(1)], 3, W)
        assert not is_ring_point(bad)

    def test_closed_under_reaches_the_tail(self):
        # the vacuum has no rows: only its tail monomial z^-1 meets z in 1
        assert krichever._closed_under(FramePoint.vacuum(W), [mono(1)]) is False
        assert krichever._closed_under(FramePoint.vacuum(W), [mono(-1)]) is True

    def test_needs_exact(self):
        u = cusp().flow(LaurentSeries({-1: 1, 0: 1}))
        with pytest.raises(ZgrassError):
            is_ring_point(u)

    def test_p0_membership_cusp(self):
        rep = p0_membership(cusp())
        assert rep == (True, True, True, 1, True)

    def test_p0_membership_pencil(self):
        rep = p0_membership(pencil())
        assert rep.ring is False
        assert rep.sigma_invariant is False
        assert rep.isotropic is True
        assert rep.member is False

    def test_p0_membership_off_index(self):
        rep = p0_membership(k25())
        assert rep.ring and rep.sigma_invariant
        assert rep.isotropic is None and rep.parity is None
        assert rep.member is False


class TestStabilizer:
    def test_cusp_basis(self):
        assert stabilizer(cusp(), 5) == [
            mono(-5), mono(-4), mono(-3), mono(-2), ONE,
        ]

    def test_vacuum_basis(self):
        assert stabilizer(FramePoint.vacuum(W), 3) == [
            mono(-3), mono(-2), mono(-1), ONE,
        ]

    def test_semigroup_basis(self):
        assert stabilizer(k25(), 5) == [mono(-5), mono(-4), mono(-2), ONE]

    def test_pencil_basis(self):
        assert stabilizer(pencil(), 3) == [mono(-3), mono(-2), ONE]

    def test_stabilizer_actually_stabilizes(self):
        for u in (cusp(), k25(), pencil()):
            for f in stabilizer(u, 4):
                for r in u.rows:
                    assert u.contains(f * r)
                for j in range(u.tail_j + 1, u.tail_j + 6):
                    assert u.contains(f.shift(-j))

    def test_needs_exact(self):
        u = cusp().flow(LaurentSeries({-1: 1, 0: 1}))
        with pytest.raises(ZgrassError):
            stabilizer(u, 3)


class TestOrbitProfile:
    def test_cusp_genus_one(self):
        prof = orbit_profile(cusp(), 8)
        assert prof.verdict == "stable"
        assert prof.value == 1
        assert prof.dims[-1] == 1

    def test_vacuum_fixed(self):
        prof = orbit_profile(FramePoint.vacuum(W), 6)
        assert prof.verdict == "stable"
        assert prof.value == 0

    def test_two_five_genus_two(self):
        u = k25()
        assert orbit_profile(u, 10).value == 2
        assert orbit_profile(u, 12, odd_only=True).value == 2

    def test_short_run_is_inconclusive(self):
        prof = orbit_profile(cusp(), 2)
        assert prof.verdict == "inconclusive"
        assert prof.value is None

    def test_gap_counts_match_semigroups(self):
        for a, b, genus in ((2, 3, 1), (3, 4, 3), (2, 7, 3)):
            u = span_closure([mono(-a), mono(-b)], W)
            prof = orbit_profile(u, 8)
            assert prof.verdict == "stable"
            assert prof.value == genus

    def test_nmax_below_one_rejected(self):
        for nmax in (0, -3):
            with pytest.raises(ZgrassError):
                orbit_profile(cusp(), nmax)


def level_by_level_profile(u, nmax, odd_only):
    """orbit_profile with one stabilizer solve per level, as it was before
    every level was read off the level-nmax stabilizer; kept as an oracle."""
    dims = []
    for n in range(1, nmax + 1):
        stab = stabilizer(u, n)
        flows = [i for i in range(1, n + 1) if not (odd_only and i % 2 == 0)]
        keep = {-i for i in flows}
        crows = [
            [s.coeffs.get(e, Fraction(0)) for s in stab]
            for e in range(-n, n + 1)
            if e not in keep
        ]
        overlap = len(nullspace(crows, len(stab))) if stab else 0
        dims.append(len(flows) - overlap)
    stable = len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]
    return (
        tuple(dims),
        "stable" if stable else "inconclusive",
        dims[-1] if stable else None,
    )


@st.composite
def small_exact_points(draw):
    tail = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        lo = draw(st.integers(-tail, 0))
        coeffs = {lo + k: draw(st.integers(-3, 3))
                  for k in range(draw(st.integers(0, 3)) + 1)}
        coeffs[lo] = draw(st.integers(1, 3))
        gens.append(LaurentSeries(coeffs))
    try:
        return FramePoint.from_gens(gens, tail, W)
    except DependentGenerators:
        return FramePoint.from_gens(gens[:1], tail, W)


SEMIGROUP_CURVES = [
    span_closure([mono(-g) for g in ring], W)
    for ring in ((2, 3), (2, 5), (3, 4, 5))
]


class TestOrbitProfileOracle:
    @settings(max_examples=40)
    @given(
        st.one_of(small_exact_points(), st.sampled_from(SEMIGROUP_CURVES)),
        st.integers(1, 8),
        st.booleans(),
    )
    def test_matches_level_by_level(self, u, nmax, odd_only):
        prof = orbit_profile(u, nmax, odd_only)
        assert prof[:3] == level_by_level_profile(u, nmax, odd_only)
        assert prof.stabilizer == stabilizer(u, nmax)

    @pytest.mark.parametrize("odd_only", [False, True])
    def test_work_count_on_three_row_point(self, monkeypatch, odd_only):
        """One level-nmax stabilizer: (rows + nmax) targets, each shifted by
        the 2 nmax + 1 window exponents and reduced once; two echelon
        passes, the stabilizer's kernel and the profile's overlaps."""
        u = FramePoint.from_gens(
            [
                LaurentSeries({-3: 1, 1: 2, 2: -1}),
                LaurentSeries({-2: 1, 0: 3, 3: 1}),
                LaurentSeries({-1: 1, 2: 1}),
            ],
            3,
            (-12, 12),
        )
        calls = {"reduce": 0, "stabilizer": 0}
        reduce, stab = FramePoint.reduce, krichever.stabilizer

        def counting_reduce(self, f):
            calls["reduce"] += 1
            return reduce(self, f)

        def counting_stabilizer(*args):
            calls["stabilizer"] += 1
            return stab(*args)

        monkeypatch.setattr(FramePoint, "reduce", counting_reduce)
        monkeypatch.setattr(krichever, "stabilizer", counting_stabilizer)
        passes = echelon_calls(monkeypatch)
        nmax = 12
        orbit_profile(u, nmax, odd_only)
        assert calls == {"reduce": (3 + nmax) * (2 * nmax + 1),
                         "stabilizer": 1}
        assert len(passes) == 2

    def test_axpy_work_on_big_cell_point(self, monkeypatch):
        """The seeded 4-row big-cell point (rows z^-i plus integers -3..3,
        seed 5, at every exponent z^0..z^60, tail 4): its nmax-12 stabilizer
        reduces each constraint row once against a basis kept reduced, 11,297
        row entries where the two-pass elimination touched 77,350."""
        rng = random.Random(5)
        u = FramePoint.from_gens(
            [LaurentSeries({-i: 1, **{e: rng.randint(-3, 3)
                                      for e in range(61)}})
             for i in range(1, 5)], 4, (-64, 64))
        entries = axpy_entries(monkeypatch)
        stabilizer(u, 12)
        assert entries[0] <= 15000


class TestQuotientRing:
    def test_cusp_halves_to_polynomials(self):
        q = quotient_ring(cusp())
        assert q.charge == 1
        assert q.same_subspace(FramePoint.from_gens([ONE], 0, q.window))

    def test_two_five_halves_to_polynomials(self):
        q = quotient_ring(k25())
        assert q.charge == 1
        assert q.same_subspace(FramePoint.from_gens([ONE], 0, q.window))

    def test_deep_semigroup_halves_to_cusp(self):
        u = span_closure([mono(-4), mono(-6), mono(-7)], (-16, 8))
        assert u.exact and is_ring_point(u)
        q = quotient_ring(u)
        assert q.same_subspace(FramePoint.from_gens([ONE], 1, q.window))

    def test_not_ring_raises(self):
        with pytest.raises(NotRingPoint):
            quotient_ring(pencil())

    def test_not_invariant_raises(self):
        u = FramePoint.from_gens([ONE, mono(-3) + mono(-2)], 3, W)
        assert is_ring_point(u)
        with pytest.raises(NotSigmaInvariant):
            quotient_ring(u)


class TestNormalizeInvolution:
    def oracle(self):
        # s(z) = -z/(1+z), an exact involution given as a truncated series
        return (ONE + mono(1)).invert(12) * mono(1) * Fraction(-1)

    def test_frozen_coefficients(self):
        w = normalize_involution(self.oracle(), prec=8)
        got = [w.coeff(k) for k in range(1, 7)]
        assert got == [
            Fraction(1), Fraction(-1, 2), Fraction(0),
            Fraction(1, 4), Fraction(0), Fraction(-1, 2),
        ]

    def test_conjugates_to_sign_flip(self):
        s = self.oracle()
        w = normalize_involution(s, prec=8)
        ws = w.substitute(s)
        assert all((ws + w).coeff(k) == 0 for k in range(1, 9))

    def test_sign_flip_is_already_normal(self):
        w = normalize_involution(mono(1, -1), prec=10)
        assert w == LaurentSeries.monomial(1)

    def test_rejects_non_involution(self):
        s = mono(1, -1) + mono(2) + mono(3)
        with pytest.raises(NotInvolution):
            normalize_involution(s)

    def test_rejects_wrong_linear_part(self):
        with pytest.raises(NotNormalizable):
            normalize_involution(LaurentSeries.monomial(1))
