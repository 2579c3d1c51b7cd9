from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zgrass.errors import InsufficientPrecision, ZeroInput, ZgrassError
from zgrass.series import (
    LaurentSeries,
    exp_floor,
    pair_sigma,
    pair_std,
    residue,
)

L = LaurentSeries


@st.composite
def laurent_polys(draw, min_exp=-4, max_exp=4, max_terms=4):
    """Exact Laurent polynomials with small rational coefficients."""
    exps = draw(
        st.lists(
            st.integers(min_exp, max_exp), max_size=max_terms, unique=True
        )
    )
    coeffs = {
        e: Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        for e in exps
    }
    return L(coeffs)


@st.composite
def truncated_polys(draw):
    """Laurent polynomials, exact or truncated anywhere in their range."""
    f = draw(laurent_polys())
    return L(f.coeffs, draw(st.none() | st.integers(-5, 5)))


class TestConstruction:
    def test_zero_coeffs_dropped(self):
        f = L({0: 1, 2: 0, -1: Fraction(0)})
        assert f.coeffs == {0: Fraction(1)}

    def test_ints_become_fractions(self):
        f = L({3: 2})
        assert isinstance(f.coeffs[3], Fraction)

    def test_trunc_clips_construction(self):
        f = L({0: 1, 5: 7}, trunc=3)
        assert 5 not in f.coeffs
        assert f.trunc == 3

    def test_pair_list_form(self):
        f = L([(1, 1), (1, 2)])
        assert f.coeffs == {1: Fraction(3)}

    def test_exactness_flags(self):
        assert L({0: 1}).exact
        assert not L({0: 1}, trunc=5).exact
        assert L().is_zero()
        assert not L({}, trunc=5).is_zero()


class TestInspection:
    def test_valuation(self):
        assert L({-2: 1, 3: 5}).valuation() == -2

    def test_valuation_of_zero_raises(self):
        with pytest.raises(ZeroInput):
            L().valuation()

    def test_valuation_unknown_when_truncated_zero(self):
        with pytest.raises(InsufficientPrecision):
            L({}, trunc=4).valuation()

    def test_coeff_reads(self):
        f = L({-1: 2}, trunc=3)
        assert f.coeff(-1) == 2
        assert f.coeff(2) == 0
        with pytest.raises(InsufficientPrecision):
            f.coeff(3)


class TestArithmetic:
    def test_product_of_binomials(self):
        one_plus = L({0: 1, 1: 1})
        one_minus = L({0: 1, 1: -1})
        assert one_plus * one_minus == L({0: 1, 2: -1})

    def test_add_takes_min_trunc(self):
        f = L({0: 1}, trunc=3)
        g = L({1: 1}, trunc=5)
        assert (f + g).trunc == 3

    def test_mul_trunc_rule(self):
        # f known on [-1, 2), g exact with valuation 1: product known on [0, 3)
        f = L({-1: 1, 0: 1}, trunc=2)
        g = L({1: 3})
        assert (f * g).trunc == 3
        assert (f * g).coeffs == {0: Fraction(3), 1: Fraction(3)}

    def test_mul_by_exact_zero_is_exact_zero(self):
        f = L({0: 1}, trunc=5)
        assert (f * L()).is_zero()
        assert (f * 0).is_zero()

    def test_truncated_zero_is_not_absorbing(self):
        # zero up to 3 times z^-2: could have terms from exponent 1 on
        f = L({}, trunc=3)
        g = L({-2: 1})
        h = f * g
        assert h.trunc == 1 and not h.coeffs

    def test_scalar_ops(self):
        f = L({1: 2})
        assert 3 * f == L({1: 6})
        assert f * Fraction(1, 2) == L({1: 1})
        assert f + 1 == L({0: 1, 1: 2})
        assert 1 - f == L({0: 1, 1: -2})

    def test_pow(self):
        f = L({0: 1, 1: 1})
        assert (f ** 3).coeffs == {
            0: Fraction(1),
            1: Fraction(3),
            2: Fraction(3),
            3: Fraction(1),
        }
        assert (f ** 0) == L.one()

    def test_shift(self):
        f = L({-1: 1, 2: 3})
        assert f.shift(2) == L({1: 1, 4: 3})


class TestInvert:
    def test_geometric_series(self):
        f = L({0: 1, 1: -1})
        finv = f.invert(prec=5)
        assert finv == L({e: 1 for e in range(5)}, trunc=5)

    def test_exact_monomial_inverts_exactly(self):
        f = L({2: 3})
        assert f.invert() == L({-2: Fraction(1, 3)})
        assert f.invert().exact

    def test_truncated_input_precision(self):
        # z^-1 (1 + z) known on [-1, 3): inverse known on [1, 5)
        f = L({-1: 1, 0: 1}, trunc=3)
        finv = f.invert()
        assert finv == L({1: 1, 2: -1, 3: 1, 4: -1}, trunc=5)

    def test_mul_by_inverse_is_one(self):
        f = L({-2: 2, 0: 1, 1: Fraction(1, 3)})
        prod = f * f.invert(prec=10)
        assert prod.coeff(0) == 1
        assert all(not c for e, c in prod.coeffs.items() if e != 0)

    def test_zero_raises(self):
        with pytest.raises(ZeroInput):
            L().invert()
        with pytest.raises(InsufficientPrecision):
            L({}, trunc=2).invert()

    @given(laurent_polys())
    def test_inverse_of_inverse(self, f):
        if not f.coeffs:
            return
        g = f.invert(prec=8).invert()
        v = f.valuation()
        hi = v + 6 if g.trunc is None else min(g.trunc, v + 6)
        for e in range(v, hi):
            assert g.coeff(e) == f.coeff(e)


class TestSubstitute:
    def test_sign_flip(self):
        f = L({-1: 1, 0: 2, 1: 1, 2: 5})
        assert f.flip() == L({-1: -1, 0: 2, 1: -1, 2: 5})

    def test_sign_flip_keeps_trunc(self):
        f = L({1: 1}, trunc=3)
        assert f.flip().trunc == 3

    @given(truncated_polys())
    def test_flip_is_substitution_of_minus_z(self, f):
        # the general composition agrees with the flip wherever it is known
        assert f.flip() == f.substitute(L({1: -1}))
        assert f.flip().flip() == f

    def test_identity(self):
        f = L({-2: 1, 3: 4})
        assert f.substitute(L({1: 1})) == f

    def test_inverse_exponent(self):
        # z^-1 under z -> z + z^2 gives 1/(z(1+z)) = z^-1 - 1 + z - z^2 + ...
        w = L({1: 1, 2: 1})
        got = L({-1: 1}).substitute(w, prec=6)
        for e, c in [(-1, 1), (0, -1), (1, 1), (2, -1), (3, 1)]:
            assert got.coeff(e) == c

    def test_needs_valuation_one(self):
        with pytest.raises(ZgrassError):
            L({0: 1}).substitute(L({2: 1}))

    def test_composition_of_involution(self):
        flip = L({1: -1})
        assert flip.substitute(flip) == L({1: 1})
        s = L({1: -1, 2: 1})
        comp = s.substitute(s)
        # not an involution: s(s(z)) = z - 2z^3 + ...
        assert comp.coeff(1) == 1
        assert comp.coeff(3) == -2


class TestPairings:
    def test_residue(self):
        assert residue(L({-1: 5, 0: 3})) == 5
        assert residue(L({3: 1})) == 0

    def test_residue_soundness(self):
        assert residue(L({-3: 1}, trunc=0)) == 0
        with pytest.raises(InsufficientPrecision):
            residue(L({-3: 1}, trunc=-1))

    def test_frozen_sigma_values(self):
        assert pair_sigma(L.one(), L({-1: 1})) == -1
        assert pair_sigma(L({-1: 1}), L.one()) == 1

    def test_std_pairing(self):
        assert pair_std(L({-1: 1}), L.one()) == 1
        assert pair_std(L({-3: 1}), L({2: 7})) == 7

    @given(truncated_polys(), truncated_polys())
    @example(L({-3: 1}, trunc=0), L({1: 1}, trunc=1))
    @example(L({}, trunc=2), L({-3: 2}))
    @example(L(), L({-1: 1}, trunc=-2))
    def test_std_pairing_is_residue_of_product(self, f, g):
        # one coefficient read without the product, refused exactly where
        # the product's residue is
        try:
            want = residue(f * g)
        except InsufficientPrecision:
            with pytest.raises(InsufficientPrecision):
                pair_std(f, g)
        else:
            got = pair_std(f, g)
            assert got == want and type(got) is type(want)

    @given(laurent_polys(), laurent_polys())
    def test_hemisymmetry(self, f, g):
        assert pair_sigma(f, g) == -pair_sigma(g, f)

    @given(laurent_polys())
    def test_self_pairing_vanishes(self, f):
        assert pair_sigma(f, f) == 0

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    def test_bilinearity(self, f, g, h):
        lhs = pair_sigma(f + 2 * g, h)
        assert lhs == pair_sigma(f, h) + 2 * pair_sigma(g, h)


class TestExpFloor:
    def test_single_time(self):
        u = L({-1: 1})
        e = exp_floor(u, -3)
        assert e == L({0: 1, -1: 1, -2: Fraction(1, 2), -3: Fraction(1, 6)})

    def test_two_times(self):
        u = L({-1: Fraction(1, 2), -2: 3})
        e = exp_floor(u, -2)
        assert e.coeff(0) == 1
        assert e.coeff(-1) == Fraction(1, 2)
        assert e.coeff(-2) == 3 + Fraction(1, 8)

    def test_rejects_nonnegative_support(self):
        with pytest.raises(ZgrassError):
            exp_floor(L({0: 1}), -2)

    def test_multiplicativity_within_floor(self):
        a = L({-1: 1})
        b = L({-2: Fraction(1, 3)})
        lhs = exp_floor(a + b, -4)
        rhs = (exp_floor(a, -4) * exp_floor(b, -4)).drop_below(-4)
        assert lhs == rhs
