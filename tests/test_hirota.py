"""The KP equation in Hirota form on tau polynomials.

(D1^4 + 3 D2^2 - 4 D1 D3) tau.tau = 0 characterizes KP tau functions
independently of the Pluecker minors tau is built from: the oracle
(frame_oracles.kp_defect) only differentiates the finished polynomial.  It
runs on random exact frames of every small charge, on the monomial corpus
(tau = s_lam), on weight-capped taus, where it is read only through
weight cap - 4, and on the shifted taus `zgrass family-square` prints.  A
tau with one Pluecker coordinate perturbed must fail it.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from frame_oracles import flowed_tau, hirota, kp_defect
from zgrass.grassmann import FramePoint
from zgrass.series import LaurentSeries
from zgrass.symfun import TimePolynomial, partitions_upto, schur, tvar
from zgrass.tau import plucker_support, tau_function, time_shift

W = (-16, 12)


def frame(gens, tail):
    return FramePoint.from_gens([LaurentSeries(g) for g in gens], tail, W)


# two frames on which every single-coordinate perturbation breaks KP
TWO_ROWS = frame([{-2: 1, 0: 3}, {-1: 1, 1: 2}], 2)          # charge 0
CHARGE_M2 = frame([{-3: 1, -1: 2}, {-2: 1, 0: -1}], 4)       # charge -2


@st.composite
def frames(draw, max_box):
    """Exact frames of 1-3 rows and charge -2..2 whose support box (rows x
    width) holds partitions of weight at most max_box."""
    rows = draw(st.integers(1, 3))
    charge = draw(st.integers(-2, min(2, rows)))
    tail = rows - charge
    # width = maxtop + 1 - charge; rows distinct pivots need maxtop >= charge-1
    maxtop = draw(st.integers(charge - 1, max_box // rows - 1 + charge))
    pivots = draw(st.lists(st.integers(-tail, maxtop), min_size=rows,
                           max_size=rows, unique=True))
    gens = []
    for p in pivots:
        extra = {} if p == maxtop else draw(st.dictionaries(
            st.integers(p + 1, maxtop), st.integers(-3, 3).filter(bool),
            max_size=2))
        gens.append({p: 1, **extra})
    return FramePoint.from_gens([LaurentSeries(g) for g in gens], tail, W,
                                allow_dependent=True)


def perturbed(u, index):
    """Tau of u with the index-th support coordinate raised by 1."""
    acc = TimePolynomial()
    for i, (lam, v) in enumerate(plucker_support(u)):
        acc = acc + schur(lam.parts) * (v + (i == index))
    return acc


class TestHirota:
    def test_first_derivatives(self):
        tau = schur((2,)) + schur((1, 1)) * 3
        d1 = tau.differentiate("t", 1)
        d11 = d1.differentiate("t", 1)
        assert hirota(tau, {1: 1}) == TimePolynomial()
        assert hirota(tau, {1: 2}) == (tau * d11 - d1 * d1) * 2

    def test_cap_drops_by_operator_weight(self):
        assert kp_defect(tvar(1).with_cap(7)).maxweight == 3


class TestKP:
    @settings(max_examples=40)
    @given(frames(max_box=9))
    @example(TWO_ROWS)
    @example(CHARGE_M2)
    @example(frame([{-1: 1, 1: 2}, {0: 1, 1: -1}], 1))       # charge 1
    @example(frame([{-1: 1, 0: 2}], 2))                        # charge -1
    def test_random_frames(self, u):
        assert kp_defect(tau_function(u)) == TimePolynomial()

    @pytest.mark.parametrize("lam", partitions_upto(6),
                             ids=lambda lam: str(list(lam.parts)))
    def test_monomial_corpus(self, lam):
        # rows z^(lam_i - i) over tail len(lam): tau = s_lam
        u = frame([{p - i: 1} for i, p in enumerate(lam, 1)], len(lam))
        tau = tau_function(u)
        assert tau == schur(lam)
        assert kp_defect(tau) == TimePolynomial()

    @settings(max_examples=30)
    @given(frames(max_box=16), st.integers(4, 8))
    @example(TWO_ROWS, 4)
    @example(CHARGE_M2, 8)
    def test_capped_tau(self, u, cap):
        d = kp_defect(tau_function(u, cap))
        assert d.maxweight == cap - 4
        assert not d.terms

    @pytest.mark.parametrize("u", [TWO_ROWS, CHARGE_M2],
                             ids=["charge0", "charge-2"])
    def test_perturbed_coordinate_fails(self, u):
        """Raising any one coordinate by 1 breaks KP, also read through the
        defect's weight 4 off a tau capped at 8."""
        support = plucker_support(u)
        assert len(support) > 1
        assert kp_defect(tau_function(u)) == TimePolynomial()
        for i, (lam, _) in enumerate(support):
            bad = perturbed(u, i)
            assert kp_defect(bad).terms, lam
            assert kp_defect(bad.with_cap(8)).terms, lam


class TestFamilySquare:
    """KP on tau of a base point flowed by a formal family, as `zgrass
    family-square` prints it: the base tau at the shifted times t + c, which
    is the tau of the flowed frame (the oracle).  The base is not the
    vacuum, whose flowed tau is the constant 1; the taus are polynomials in
    t and the family parameters."""

    @pytest.mark.parametrize("flows, gens, tail", [
        ({1: "a", 3: "b"}, [{-1: 1, 1: 1}], 1),
        ({1: "a", 3: "a"}, [{-2: 1, 0: 3}, {-1: 1, 1: 2}], 2),
        ({1: "a", 3: "b"}, [{-2: 1, 0: 3, 1: -1}, {-1: 1, 1: 2, 2: 1}], 2),
    ], ids=["one-row", "two-row", "two-row-two-families"])
    def test_flowed_tau(self, flows, gens, tail):
        weight, floor = 8, -10
        start = FramePoint.from_gens([LaurentSeries(g) for g in gens], tail,
                                     (floor, -floor))
        t, _ = time_shift(tau_function(start), flows, weight)
        assert t == flowed_tau(start, flows, floor, weight)[0]
        families = {fam for mono in t.terms for (fam, _), _ in mono}
        assert families - {"t"}
        d = kp_defect(t)
        assert d.maxweight == weight - 4 and not d.terms
        assert kp_defect(t + tvar(2).with_cap(weight)).terms
