"""Tau polynomials, square-root normal forms, Baker residual pairings."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from zgrass.errors import InsufficientPrecision, OddParity, ZgrassError
from zgrass.grassmann import FramePoint
from zgrass.krichever import CurveData, span_closure
from zgrass.series import LaurentSeries, residue
from zgrass.symfun import (
    Partition,
    TimePolynomial,
    partitions_upto,
    schur,
    schur_p,
    tconst,
    tvar,
)
from zgrass import tau as tau_module
from zgrass.tau import (
    baker,
    baker_residual_matrices,
    bilinear_residues,
    odd_part,
    plucker_support,
    tau_function,
    tau_flow_consistency,
    taubar,
    times_flow,
)

W = (-8, 8)


def mono(e):
    return LaurentSeries.monomial(e)


def series(d):
    return LaurentSeries(d)


def cusp():
    return FramePoint.from_gens([LaurentSeries.one()], 1, window=W)


def point_a(a):
    return FramePoint.from_gens([series({-1: 1, 0: a})], 1, window=W)


class TestSupport:
    def test_vacuum(self):
        assert plucker_support(FramePoint.vacuum(window=W)) == [
            (Partition(()), Fraction(1))
        ]

    def test_cusp(self):
        sup = dict(plucker_support(cusp()))
        assert sup == {Partition((1,)): Fraction(1)}

    def test_pencil(self):
        sup = dict(plucker_support(point_a(Fraction(3))))
        assert sup == {
            Partition(()): Fraction(1),
            Partition((1,)): Fraction(3),
        }

    def test_negative_charge(self):
        u = FramePoint.from_gens([series({-2: 1, 0: 5})], 2, window=W)
        sup = dict(plucker_support(u))
        assert u.charge == -1
        assert sup == {
            Partition(()): Fraction(1),
            Partition((2,)): Fraction(5),
        }

    def test_needs_exact(self):
        moved = FramePoint.vacuum(window=W).flow(series({-1: 1, 0: 1, 1: 1}))
        with pytest.raises(ZgrassError):
            plucker_support(moved)

    def test_cap_prunes_the_box(self):
        u = FramePoint.from_gens(
            [series({-2: 1, 0: 3}), series({-1: 1, 1: 2})], 2, window=W
        )
        full = plucker_support(u)
        assert [lam.weight for lam, _ in full] == [0, 2, 2, 4]
        for cap in range(6):
            assert plucker_support(u, cap) == [
                (lam, v) for lam, v in full if lam.weight <= cap]

    def test_approximate_frame_reads_every_partition_to_the_cap(self):
        moved = FramePoint.vacuum(window=W).flow(series({-1: 1, 0: 1}))
        assert plucker_support(moved, 3) == [(Partition(()), Fraction(1))]


class TestTau:
    def test_vacuum(self):
        assert tau_function(FramePoint.vacuum(window=W)) == tconst(1)

    def test_cusp(self):
        assert tau_function(cusp()) == schur((1,))

    def test_pencil(self):
        a = Fraction(2, 3)
        assert tau_function(point_a(a)) == tconst(1) + tvar(1) * a

    def test_negative_charge(self):
        u = FramePoint.from_gens([series({-2: 1, 0: 5})], 2, window=W)
        assert tau_function(u) == tconst(1) + schur((2,)) * 5

    def test_family(self):
        assert tau_function(point_a(tvar(1, "a"))) == tconst(1) + tvar(1) * tvar(
            1, "a"
        )

    def test_two_rows(self):
        # rows sorted by pivot: z^-1 + 2z above z^-2 + 3
        u = FramePoint.from_gens(
            [series({-2: 1, 0: 3}), series({-1: 1, 1: 2})], 2, window=W
        )
        t = tau_function(u)
        expect = (
            tconst(1)
            + schur((2,)) * 2
            - schur((1, 1)) * 3
            + schur((2, 2)) * 6
        )
        assert t == expect

    def test_cap_tightens(self):
        t = tau_function(point_a(Fraction(5)), cap=1)
        assert t == (tconst(1) + tvar(1) * 5).with_cap(1)

    def test_flowed_vacuum_stays_trivial(self):
        moved = FramePoint.vacuum(window=W).flow(series({-1: 1, 0: 1}))
        assert tau_function(moved, cap=3) == tconst(1).with_cap(3)

    def test_approx_needs_cap(self):
        moved = FramePoint.vacuum(window=W).flow(series({-1: 1, 0: 1}))
        with pytest.raises(ZgrassError):
            tau_function(moved)

    def test_monomial_points_are_schur_polynomials(self):
        # rows z^(lam_i - i) over tail len(lam): charge 0, tau = s_lam
        for lam in partitions_upto(6):
            gens = [mono(p - i) for i, p in enumerate(lam, 1)]
            u = FramePoint.from_gens(gens, len(lam), window=W)
            assert u.charge == 0
            assert tau_function(u) == schur(lam), lam


class TestFlowConsistency:
    def test_pencil(self):
        u = point_a(Fraction(7))
        assert tau_flow_consistency(u, 3) == tau_function(u).with_cap(3)

    def test_cusp(self):
        u = cusp()
        assert tau_flow_consistency(u, 3) == tau_function(u).with_cap(3)

    def test_negative_charge(self):
        u = FramePoint.from_gens([series({-2: 1, 0: 5})], 2, window=W)
        assert tau_flow_consistency(u, 4) == tau_function(u).with_cap(4)

    def test_scalar_minor_on_ring_point(self):
        # the <3,4> semigroup point has charge -2: tau starts at weight 5,
        # so through weight 4 both sides are the zero of the capped ring
        u = FramePoint.from_gens(
            [series({0: 1}), series({-3: 1}), series({-4: 1})], 5, window=W
        )
        got = tau_flow_consistency(u, 4)
        assert isinstance(got, TimePolynomial) and got.maxweight == 4
        assert got == tau_function(u).with_cap(4)
        assert got != tvar(4).with_cap(4)
        assert got != tconst(1).with_cap(4)

    def test_two_rows(self):
        u = FramePoint.from_gens(
            [series({-2: 1, 0: 3}), series({-1: 1, 1: 2})], 2, window=W
        )
        want = tau_function(u).with_cap(4)
        assert tau_flow_consistency(u, 4) == want
        assert want.component(2) == (schur((2,)) * 2 - schur((1, 1)) * 3)

    @settings(max_examples=20)
    @given(st.data())
    def test_deep_frames_past_weight_4(self, data):
        """3-4-row frames with tops <= 4, flowed and capped at 6-8."""
        nrows = data.draw(st.integers(3, 4))
        tail = data.draw(st.integers(nrows - 2, 4))
        pivots = data.draw(st.lists(st.integers(-tail, 1), min_size=nrows,
                                    max_size=nrows, unique=True))
        gens = [series({p: 1, **data.draw(st.dictionaries(
            st.integers(p + 1, 4), st.integers(-3, 3).filter(bool),
            min_size=1, max_size=2))}) for p in pivots]
        u = FramePoint.from_gens(gens, tail, window=(-16, 12))
        assume(len(u.rows) == nrows)
        c = data.draw(st.integers(6, 8))
        assert tau_flow_consistency(u, c) == tau_function(u).with_cap(c)

    def test_computes_no_tau(self, monkeypatch):
        """The check returns the flowed minor alone: the caller compares it
        with the tau it already holds, and no support box is swept here."""
        u = point_a(Fraction(7))

        def refuse(*args):
            raise AssertionError("tau_flow_consistency swept the support")

        monkeypatch.setattr(tau_module, "plucker_support", refuse)
        got = tau_flow_consistency(u, 3)
        monkeypatch.undo()
        assert got == tau_function(u, cap=3)
        assert got != (tau_function(u) + tvar(2)).with_cap(3)

    def test_times_flow_unit(self):
        g = times_flow(3, -8)
        assert g.coeff(0) == tconst(1).with_cap(3)
        assert g.low == -3


class TestTaubar:
    def test_perfect_square(self):
        t1 = tvar(1)
        tau = (t1 + 1) * (t1 + 1) * 5
        nf = taubar(tau, 4)
        assert nf.scale == 5
        assert nf.root == t1 + 1
        assert nf.root * nf.root * nf.scale == tau

    def test_pencil_roundtrip(self):
        tau = tau_function(point_a(Fraction(4)))
        nf = taubar(tau, 3)
        sq = nf.root * nf.root * nf.scale
        for w in range(4):
            assert sq.component(w) == tau.component(w)

    def test_cusp_is_odd(self):
        with pytest.raises(OddParity):
            taubar(tau_function(cusp()), 2)

    def test_capped_honesty(self):
        tau = tau_function(point_a(Fraction(4)), cap=1)
        with pytest.raises(InsufficientPrecision):
            taubar(tau, 2)
        nf = taubar(tau, 1)
        assert nf.root == tconst(1) + tvar(1) * 2

    def test_scale_not_one(self):
        nf = taubar(tconst(Fraction(9, 4)), 5)
        assert nf.scale == Fraction(9, 4)
        assert nf.root == tconst(1)

    def test_even_times_dropped(self):
        t1, t2 = tvar(1), tvar(2)
        tau = (t1 + 1) * (t1 + 1) + t2 * 7
        assert odd_part(tau) == (t1 + 1) * (t1 + 1)
        nf = taubar(tau, 4)
        assert nf.root == t1 + 1

    def test_odd_part_keeps_other_families(self):
        q = tvar(1) * tvar(2, "a") + tvar(2) * tvar(1, "a")
        assert odd_part(q) == tvar(1) * tvar(2, "a")

    def test_isotropy_gate(self):
        """taubar reads tau alone and gates on no isotropy: a point off the
        isotropic locus with tau(0) != 0 has a normal form too, so a normal
        form certifies nothing about isotropy."""
        u = FramePoint.from_gens([series({-1: 1, 2: 1})], 1, window=W)
        assert not u.isotropy().isotropic
        tau = tau_function(u).with_cap(4)
        nf = taubar(tau, 4)
        assert not nf.root * nf.root * nf.scale - odd_part(tau)
        nf = taubar(tau_function(point_a(Fraction(2))), 2)
        assert nf.scale == 1

    def test_parity_zero_point_with_vanishing_tau(self):
        """z^3 k[z^-3, z^-5] is isotropic of parity 0 and still has tau(0) = 0;
        taubar refuses it as it refuses odd parity, and the caller that holds
        the point reads the cause off its isotropy (family-square does)."""
        u = span_closure(
            CurveData((mono(-3), mono(-5)), module_gens=(mono(3),)), (-24, 24)
        )
        rep = u.isotropy()
        assert u.exact and u.charge == 0
        assert rep.isotropic and rep.parity == 0
        tau = tau_function(u)
        assert tau.constant_term() == 0
        with pytest.raises(OddParity):
            taubar(tau, 4)


ONE = LaurentSeries.one()


def pencil():
    return FramePoint.from_gens([mono(-1) + ONE], 1, window=W)


class TestBakerSeries:
    def test_vacuum_basis(self):
        pairs = baker(FramePoint.vacuum(window=W), 3)
        assert [r for r, _ in pairs] == [mono(-1), mono(-2), mono(-3)]
        assert [b for _, b in pairs] == [
            schur_p(i).with_cap(3) for i in (1, 2, 3)
        ]

    def test_cusp_basis(self):
        pairs = baker(cusp(), 3)
        assert [r for r, _ in pairs] == [ONE, mono(-2), mono(-3)]

    def test_adjoint_is_dual_basis(self):
        pairs = baker_adjoint(pencil(), 2)
        assert pairs[0][0] == mono(-1) - ONE
        assert pairs[0][1] == schur_p(1, "s").with_cap(2)

    def test_needs_exact(self):
        moved = FramePoint.vacuum(window=W).flow(series({-1: 1, 0: 1, 1: 1}))
        with pytest.raises(ZgrassError):
            baker(moved, 2)


def baker_adjoint(u, weight):
    """Baker series of the residue-orthogonal point, in the second times s."""
    return tuple((row, schur_p(i + 1, "s").with_cap(weight))
                 for i, (row, _) in enumerate(baker(u.orthogonal(), weight)))


def assembled_residues(u, weight):
    """Oracle: both Baker series assembled as series with polynomial
    coefficients, the residues read off their products."""

    def assemble(pairs):
        acc = LaurentSeries.zero()
        for row, block in pairs:
            if block:
                acc = acc + row * block
        return LaurentSeries.monomial(1) * acc

    psi = assemble(baker(u, weight))
    phi = assemble(baker_adjoint(u, weight))
    form = LaurentSeries.monomial(-2)
    r1 = residue(psi * phi * form)
    r2 = residue(psi.flip() * phi * form)
    z = TimePolynomial({}, weight)
    return (z + r1 if r1 else z, z + r2 if r2 else z)


@st.composite
def exact_frames(draw):
    """Exact frames of 0-3 rows over tails 0-3: charges -3..3, both
    parities, sign-invariant or not."""
    tail = draw(st.integers(0, 3))
    gens = [
        LaurentSeries(draw(st.dictionaries(
            st.integers(-tail, 3), st.integers(-3, 3), min_size=1,
            max_size=3)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return FramePoint.from_gens(gens, tail, (-12, 12), allow_dependent=True)


def residues(u, weight):
    return bilinear_residues(baker_residual_matrices(u, weight), weight)


class TestBilinear:
    @given(exact_frames(), st.integers(0, 8))
    def test_matches_assembled_series(self, u, weight):
        assert bilinear_residues(baker_residual_matrices(u, weight),
                                 weight) == assembled_residues(u, weight)

    @given(exact_frames(), st.integers(0, 8), st.integers(0, 3))
    def test_larger_matrices_read_the_same(self, u, weight, extra):
        """The residuals read off larger matrices equal those of the
        weight-sized pair, whose entries are their leading blocks."""
        small = baker_residual_matrices(u, weight)
        big = baker_residual_matrices(u, weight + extra)
        assert [[row[:weight] for row in m[:weight]] for m in big] == list(
            small)
        assert bilinear_residues(big, weight) == bilinear_residues(
            small, weight)

    def test_too_small_matrices_are_refused(self):
        with pytest.raises(ZgrassError, match="too small"):
            bilinear_residues(baker_residual_matrices(pencil(), 2), 4)

    def test_first_matrix_vanishes(self):
        first, _ = baker_residual_matrices(pencil(), count=3)
        assert all(v == 0 for row in first for v in row)

    def test_second_matrix_obstruction(self):
        _, second = baker_residual_matrices(pencil(), count=3)
        assert second[0][0] == -2
        assert all(
            v == 0 for i, row in enumerate(second) for j, v in enumerate(row)
            if (i, j) != (0, 0)
        )

    def test_invariant_point_second_vanishes(self):
        first, second = baker_residual_matrices(cusp(), count=3)
        assert all(v == 0 for row in first for v in row)
        assert all(v == 0 for row in second for v in row)

    def test_residuals_on_invariant_point(self):
        r1, r2 = residues(cusp(), 4)
        assert not r1 and not r2

    def test_pencil_witness(self):
        r1, r2 = residues(pencil(), 3)
        assert not r1
        assert r2
        assert r2.coeff([(("t", 1), 1), (("s", 1), 1)]) == -2
        assert r2.component(2) == tvar(1) * tvar(1, "s") * -2

    def test_series_route_matches_matrices(self):
        u = pencil()
        _, second = baker_residual_matrices(u, count=3)
        _, r2 = assembled_residues(u, 3)
        acc = TimePolynomial({}, 3)
        for i in range(3):
            for j in range(3):
                term = schur_p(i + 1).with_cap(3) * schur_p(
                    j + 1, "s"
                ).with_cap(3)
                acc = acc + term * second[i][j]
        assert acc == r2

    def test_vacuum_self_dual(self):
        r1, r2 = residues(FramePoint.vacuum(window=W), 3)
        assert not r1 and not r2

    def test_needs_exact(self):
        moved = FramePoint.vacuum(window=W).flow(series({-1: 1, 0: 1, 1: 1}))
        with pytest.raises(ZgrassError):
            baker_residual_matrices(moved, count=2)

    def test_default_count(self):
        first, second = baker_residual_matrices(cusp())
        assert len(first) == 3 and len(first[0]) == 3
        assert all(v == 0 for row in second for v in row)


def test_no_callable_takes_a_dual():
    """A residual request computes the complement once, inside
    baker_residual_matrices, so no public callable of tau takes one."""
    takes = [name for name, fn in vars(tau_module).items()
             if not name.startswith("_") and inspect.isroutine(fn)
             and "dual" in inspect.signature(fn).parameters]
    assert takes == []
