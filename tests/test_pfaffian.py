import importlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zgrass.errors import NotAlternating, ZgrassError
from zgrass.grassmann import FramePoint
from zgrass.linalg import det_field, det_ring
from zgrass.pfaffian import (
    _pfaffian_memo,
    pfaffian,
    section_square_check,
)
from zgrass.series import LaurentSeries, exp_floor
from zgrass.symfun import tconst, tvar

from frame_oracles import gram_matrix, gram_pfaffian, mti_duality_check

# the package attribute zgrass.pfaffian is the re-exported function
pfaffian_module = importlib.import_module("zgrass.pfaffian")

ONE = LaurentSeries.one()


def alternating(entries):
    """Build an alternating matrix from the strict upper triangle."""
    n = len(entries) + 1
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = entries[i][j - i - 1]
            m[i][j] = v
            m[j][i] = -v
    return m


class TestPfaffian:
    def test_empty(self):
        assert pfaffian([]) == 1

    def test_two_by_two(self):
        assert pfaffian(alternating([[Fraction(5, 3)]])) == Fraction(5, 3)

    def test_four_by_four(self):
        a, b, c, d, e, f = (Fraction(k) for k in (1, 2, 3, 4, 5, 7))
        m = alternating([[a, b, c], [d, e], [f]])
        # rows 0..3: pf = m01 m23 - m02 m13 + m03 m12
        assert pfaffian(m) == a * f - b * e + c * d

    def test_symbolic(self):
        t = tvar(1)
        m = [[tconst(0), t], [-t, tconst(0)]]
        assert pfaffian(m) == t

    def test_odd_dimension(self):
        with pytest.raises(ZgrassError):
            pfaffian([[Fraction(0)]])

    def test_not_alternating(self):
        with pytest.raises(NotAlternating):
            pfaffian([[Fraction(1), Fraction(2)], [-Fraction(2), Fraction(0)]])
        with pytest.raises(NotAlternating):
            pfaffian([[Fraction(0), Fraction(2)], [Fraction(2), Fraction(0)]])

    @given(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    def test_square_is_determinant(self, vals):
        vals = [Fraction(v) for v in vals]
        m = alternating([vals[:3], vals[3:5], vals[5:]])
        p = pfaffian(m)
        assert p * p == det_ring(m)

    def test_six_by_six_square(self):
        entries = [
            [Fraction(1), Fraction(-2), Fraction(3), Fraction(1), Fraction(0)],
            [Fraction(2), Fraction(1), Fraction(-1), Fraction(4)],
            [Fraction(5), Fraction(2), Fraction(-3)],
            [Fraction(1), Fraction(2)],
            [Fraction(-1)],
        ]
        m = alternating(entries)
        p = pfaffian(m)
        assert p * p == det_ring(m)


def dense(rng, n):
    """Alternating n x n matrix with nonzero rational upper entries."""
    return alternating([
        [Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 7)), rng.randint(1, 4))
         for _ in range(n - 1 - i)]
        for i in range(n - 1)
    ]) if n else []


# entries of the strict upper triangle, zero half the time
SPARSE = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
)


class TestEliminationAgainstExpansion:
    """pfaffian eliminates; _pfaffian_memo, the subset expansion it falls
    back to on ring entries without a unit pivot, is the oracle."""

    @given(st.data())
    def test_sparse_rational(self, data):
        n = data.draw(st.sampled_from(range(0, 13, 2)))
        m = alternating([
            data.draw(st.lists(SPARSE, min_size=n - 1 - i, max_size=n - 1 - i))
            for i in range(n - 1)
        ]) if n else []
        assert pfaffian(m) == _pfaffian_memo(m)

    def test_pivot_swap(self):
        # row 0 holds its first unit in column 2, then in column 3
        m = alternating([[Fraction(0), Fraction(2), Fraction(-1)],
                         [Fraction(3), Fraction(5)], [Fraction(0)]])
        assert pfaffian(m) == _pfaffian_memo(m) == -13
        m = alternating([[Fraction(0), Fraction(0), Fraction(4)],
                         [Fraction(1), Fraction(0)], [Fraction(0)]])
        assert pfaffian(m) == _pfaffian_memo(m) == 4

    def test_zero_first_row(self):
        m = alternating([[Fraction(0)] * 5, [Fraction(1)] * 4,
                         [Fraction(2)] * 3, [Fraction(3)] * 2, [Fraction(4)]])
        assert pfaffian(m) == _pfaffian_memo(m) == 0

    def test_ring_fallback_partway(self, monkeypatch):
        """Capped polynomial entries: row 0 pivots on a unit, and the reduced
        block has no constant terms, so the expansion takes over there."""
        calls = []

        def counted(m):
            calls.append(len(m))
            return _pfaffian_memo(m)

        monkeypatch.setattr(pfaffian_module, "_pfaffian_memo", counted)
        rng = random.Random(13)
        t1, t2, a1 = tvar(1), tvar(2), tvar(1, "a")

        def small():
            return (t1 * rng.randint(-2, 2) + t2 * rng.randint(-2, 2)
                    + a1 * rng.randint(-1, 1)).with_cap(4)

        for n in (4, 6):
            upper = [[small() for _ in range(n - 1 - i)] for i in range(n - 1)]
            upper[0][0] = (tconst(rng.choice((1, -2, 3))) + small()).with_cap(4)
            upper[-1][0] = upper[-1][0] + t1 * t2
            m = [[tconst(0).with_cap(4)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    m[i][j], m[j][i] = upper[i][j - i - 1], -upper[i][j - i - 1]
            calls.clear()
            pf = pfaffian(m)
            assert calls == [n]
            assert pf == _pfaffian_memo(m)
            assert pf * pf == det_ring(m)

    def test_square_is_determinant_dense(self):
        rng = random.Random(24)
        for n in range(0, 25, 2):
            m = dense(rng, n)
            p = pfaffian(m)
            assert p * p == det_field(m)

    def test_rational_input_never_expands(self, monkeypatch):
        def refuse(m):
            raise AssertionError("subset expansion ran on Fraction input")

        monkeypatch.setattr(pfaffian_module, "_pfaffian_memo", refuse)
        rng = random.Random(40)
        assert pfaffian(alternating([[Fraction(0), Fraction(0), Fraction(4)],
                                     [Fraction(1), Fraction(0)],
                                     [Fraction(0)]])) == 4
        assert pfaffian(alternating([[Fraction(0)] * 3, [Fraction(1)] * 2,
                                     [Fraction(2)]])) == 0
        m = dense(rng, 40)
        t0 = time.perf_counter()
        p = pfaffian(m)
        assert time.perf_counter() - t0 < 1.0
        assert p * p == det_field(m)

    def test_integer_input_never_expands(self, monkeypatch):
        """A nonzero int is a unit pivot: a dense int matrix of size 18
        eliminates, and equals the same matrix read as Fraction."""
        def refuse(m):
            raise AssertionError("subset expansion ran on int input")

        monkeypatch.setattr(pfaffian_module, "_pfaffian_memo", refuse)
        rng = random.Random(18)
        m = [[0] * 18 for _ in range(18)]
        for i in range(18):
            for j in range(i + 1, 18):
                v = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
                m[i][j], m[j][i] = v, -v
        p = pfaffian(m)
        assert p == pfaffian([[Fraction(x) for x in r] for r in m])
        assert p * p == det_field(m)


class TestGram:
    def test_flip_gram(self):
        m = gram_matrix([ONE, LaurentSeries.monomial(-1)])
        assert m[0][1] == -1
        assert m[1][0] == 1
        assert gram_pfaffian([ONE, LaurentSeries.monomial(-1)]) == -1

    def test_self_pairings_vanish(self):
        vs = [
            LaurentSeries({-1: 1, 0: 2}),
            LaurentSeries({-2: 1, 1: 3}),
            ONE,
            LaurentSeries({-3: Fraction(1, 2)}),
        ]
        m = gram_matrix(vs)
        assert all(m[i][i] == 0 for i in range(4))
        assert pfaffian(m) * pfaffian(m) == det_ring(m)


class TestDuality:
    def test_vacuum_against_cusp(self):
        a = FramePoint.vacuum()
        b = FramePoint.from_gens([ONE], 1)
        rep = mti_duality_check(a, b)
        assert rep.dual
        assert rep.matrix == [[-1]]

    def test_identical_points(self):
        v = FramePoint.vacuum()
        rep = mti_duality_check(v, v)
        assert rep.dual
        assert rep.matrix == []

    def test_nested_points_fail(self):
        a = FramePoint.vacuum()
        b = FramePoint.from_gens([LaurentSeries({-2: 1, 0: 1})], 2)
        rep = mti_duality_check(a, b)
        assert not rep.dual


class TestSquareCheck:
    def test_perfect_square_with_scale(self):
        r = tconst(1) + tvar(1) + tvar(2) * Fraction(1, 2)
        q = r * r * Fraction(3)
        chk = section_square_check(q)
        assert chk.ok
        assert chk.scale == 3
        assert chk.root == r
        assert chk.witness is None

    def test_constant(self):
        chk = section_square_check(tconst(Fraction(9, 4)))
        assert chk.ok and chk.scale == Fraction(9, 4) and chk.root == tconst(1)

    def test_zero_constant_term(self):
        chk = section_square_check(tvar(1))
        assert not chk.ok
        assert chk.scale == 0

    def test_odd_top_weight(self):
        chk = section_square_check(tconst(1) + tvar(1) ** 3)
        assert not chk.ok
        assert chk.witness == tvar(1) ** 3

    def test_genuine_non_square(self):
        chk = section_square_check(tconst(1) + tvar(2))
        assert not chk.ok
        assert chk.witness == -tvar(2)

    def test_capped_input_rejected(self):
        with pytest.raises(ZgrassError):
            section_square_check((tconst(1) + tvar(2)).with_cap(4))

    def test_vacuum_family_is_square(self):
        # pi_() along the odd-exponential family through the vacuum is 1
        flows = LaurentSeries({-1: tvar(1, "a"), -3: tvar(3, "a")})
        fam = FramePoint.vacuum((-8, 8)).flow(exp_floor(flows, -8))
        q = fam.plucker(())
        chk = section_square_check(q)
        assert chk.ok
        assert chk.scale == 1
        assert chk.root == tconst(1)

    def test_pencil_family_is_not_square(self):
        # through span{z^-1 + b} the same family has pi_() = 1 + b a_1
        b = Fraction(1, 2)
        flows = LaurentSeries({-1: tvar(1, "a"), -3: tvar(3, "a")})
        fam = FramePoint.from_gens(
            [LaurentSeries({-1: 1, 0: b})], 1, (-8, 8)
        ).flow(exp_floor(flows, -8))
        q = fam.plucker(())
        assert q == tconst(1) + tvar(1, "a") * b
        chk = section_square_check(q)
        assert not chk.ok
        assert chk.witness == tvar(1, "a") * b
