import importlib
import inspect
import pkgutil
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zgrass
from zgrass import linalg, symfun
from zgrass.errors import InsufficientPrecision, ParseError, ZgrassError
from zgrass.hierarchy import extraction_operator
from zgrass.symfun import (
    Partition,
    TimePolynomial,
    apply_tilde,
    hall,
    horizontal_strips,
    partitions,
    partitions_in_box,
    partitions_upto,
    schur,
    schur_p,
    sqrt_series,
    strip_sum,
    tconst,
    tvar,
)

from frame_oracles import evaluate, hall_oracle

t1, t2, t3 = tvar(1), tvar(2), tvar(3)
half = Fraction(1, 2)


class TestPartition:
    def test_validation(self):
        assert Partition((3, 1, 0)).parts == (3, 1)
        with pytest.raises(ParseError):
            Partition((1, 2))
        with pytest.raises(ParseError):
            Partition((2, -1))

    def test_weight_and_order(self):
        for parts, weight, top in (((2, 1), 3, 2), ((), 0, 0),
                                   ((3, 1, 1), 5, 3)):
            lam = Partition(parts)
            assert (lam.weight, lam.top) == (weight, top)
        assert Partition((1, 1)) < Partition((2,))
        assert Partition(()) < Partition((1,))

    def test_enumeration_order(self):
        assert [p.parts for p in partitions(4)] == [
            (1, 1, 1, 1),
            (2, 1, 1),
            (2, 2),
            (3, 1),
            (4,),
        ]
        assert len(partitions_upto(5)) == 1 + 1 + 2 + 3 + 5 + 7

    def test_box(self):
        got = [p.parts for p in partitions_in_box(2, 2)]
        assert got == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
        assert [p.parts for p in partitions_in_box(2, 2, 2)] == got[:4]

    @given(st.integers(0, 5), st.integers(0, 6), st.integers(0, 14))
    def test_weight_bounded_box(self, maxlen, maxwidth, maxweight):
        """The weight bound prunes the enumeration and yields exactly the
        unbounded box filtered by weight, in the same order."""
        full = partitions_in_box(maxlen, maxwidth)
        assert partitions_in_box(maxlen, maxwidth, maxweight) == [
            lam for lam in full if lam.weight <= maxweight]
        assert partitions_in_box(maxlen, maxwidth, None) == full


class TestStrips:
    def test_frozen_examples(self):
        assert horizontal_strips((2, 1), 0) == (Partition((2, 1)),)
        assert horizontal_strips((2, 1), 1) == (
            Partition((1, 1)),
            Partition((2,)),
        )
        assert horizontal_strips((2, 1), 2) == (Partition((1,)),)
        assert horizontal_strips((2, 1), 3) == ()

    def test_single_row(self):
        assert horizontal_strips((3,), 2) == (Partition((1,)),)

    @given(st.integers(0, 5), st.integers(0, 8))
    def test_strip_sizes(self, alpha, seed):
        lams = partitions_upto(5)
        lam = lams[seed % len(lams)]
        for mu in horizontal_strips(lam, alpha):
            assert mu.weight == lam.weight - alpha
            # interlacing check
            mu_full = mu.parts + (0,) * (len(lam) - len(mu))
            for i in range(len(lam)):
                assert mu_full[i] <= lam[i]
                if i + 1 < len(lam):
                    assert mu_full[i] >= lam[i + 1]


class TestSchur:
    def test_p_oracles(self):
        assert schur_p(0) == tconst(1)
        assert schur_p(1) == t1
        assert schur_p(2) == half * t1 * t1 + t2
        assert schur_p(3) == Fraction(1, 6) * t1 ** 3 + t1 * t2 + t3
        assert not schur_p(-1)

    def test_chi_oracles(self):
        assert schur((1, 1)) == half * t1 * t1 - t2
        assert schur((2, 1)) == Fraction(1, 3) * t1 ** 3 - t3
        assert schur((2,)) == schur_p(2)
        assert schur(()) == tconst(1)

    def test_strip_sum_oracle(self):
        assert strip_sum((2, 1), 1) == t1 * t1
        assert strip_sum((2, 1), 0) == schur((2, 1))
        assert not strip_sum((2, 1), 3)

    def test_orthonormality(self):
        lams = partitions_upto(4)
        for lam in lams:
            for mu in lams:
                expect = 1 if lam == mu else 0
                assert hall(schur(lam), schur(mu)) == expect

    def test_evaluate(self):
        assert evaluate(schur((2,)), {("t", 1): 2, ("t", 2): 3}) == 5
        assert evaluate(schur((2, 1)), {("t", 1): 3}) == 9


def schur_p_recursive(n, fam):
    """n p_n = sum_k k t_k p_{n-k}: the oracle for schur_p."""
    ps = [tconst(1)]
    for m in range(1, n + 1):
        acc = TimePolynomial()
        for k in range(1, m + 1):
            acc = acc + k * tvar(k, fam) * ps[m - k]
        ps.append(acc * Fraction(1, m))
    return ps[n]


class TestOneRowSchur:
    """schur_p(n) is the one-row Schur polynomial chi_(n), relabelled."""

    @pytest.mark.parametrize("fam", ["t", "s"])
    def test_matches_recursion_through_16(self, fam):
        for n in range(17):
            assert schur_p(n, fam) == schur_p_recursive(n, fam), (n, fam)

    def test_is_one_row_schur(self):
        for n in range(9):
            assert schur_p(n) is schur((n,))


def jacobi_trudi(lam):
    """chi_lam = det(p_{lam_i - i + j}) by det_ring: the oracle for schur."""
    rows = [[schur_p(p - i + j, "t") for j in range(len(lam))]
            for i, p in enumerate(lam)]
    return linalg.det_ring(rows) if rows else tconst(1)


@st.composite
def heavy_partitions(draw):
    """Partitions of weight 10-12."""
    lams = partitions(draw(st.integers(10, 12)))
    return lams[draw(st.integers(0, len(lams) - 1))]


class TestSchurByCharacters:
    """schur reads chi^lam(mu) / prod m_k! off the character table."""

    def test_jacobi_trudi_through_weight_9(self):
        for lam in partitions_upto(9):
            assert schur(lam) == jacobi_trudi(lam.parts), lam

    @settings(max_examples=20)
    @given(heavy_partitions())
    def test_jacobi_trudi_past_weight_9(self, lam):
        assert schur(lam) == jacobi_trudi(lam.parts)

    def test_character_values(self):
        # chi^(2,1) on the classes of S_3 (beta-numbers {3, 1}), and
        # chi^(2,2) on (2,2) and (3,1) (beta-numbers {3, 2})
        assert [symfun._character(0b1010, mu)
                for mu in ((1, 1, 1), (2, 1), (3,))] == [2, 0, -1]
        assert symfun._character(0b1100, (2, 2)) == 2
        assert symfun._character(0b1100, (3, 1)) == -1

    def test_no_determinant_and_no_product(self, monkeypatch):
        """A cold schur through weight 8 calls neither det_ring nor
        TimePolynomial.__mul__."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("zgrass") and hasattr(mod, "det_ring"):
                monkeypatch.setattr(mod, "det_ring",
                                    counted("det_ring", mod.det_ring))
        for attr in ("__mul__", "__rmul__"):
            monkeypatch.setattr(TimePolynomial, attr,
                                counted("mul", getattr(TimePolynomial, attr)))
        schur.cache_clear()
        symfun._character.cache_clear()
        lams = partitions_upto(8)
        for lam in lams:
            schur(lam)
        assert schur.cache_info().misses == len(lams)
        assert calls == Counter()
        # the wrappers count: a determinant of polynomials uses both
        linalg.det_ring([[t1, t2], [t3, t1]])
        assert calls["det_ring"] == 1 and calls["mul"] > 0


class TestMemo:
    """The Schur calculus memoizes through functools.cache, one idiom."""

    def test_cache_info_counts_hits(self):
        for fn, args in ((schur_p, (3, "t")), (schur, ((2, 1),)),
                         (strip_sum, ((2, 1), 1)),
                         (extraction_operator, ((2, 1), 0, True))):
            fn(*args)
            hits = fn.cache_info().hits
            assert fn(*args) is fn(*args)
            assert fn.cache_info().hits == hits + 2

    def test_tuple_and_partition_share_an_entry(self):
        lam = Partition((2, 1))
        assert schur((2, 1)) is schur(lam)
        assert strip_sum((2, 1), 1) is strip_sum(lam, 1)
        assert extraction_operator((2, 1), 0, True) is extraction_operator(
            lam, 0, True)

    def test_no_module_memo_dicts(self):
        # process-lifetime memos are functools.cache wrappers, not dicts
        found = []
        for info in pkgutil.walk_packages(zgrass.__path__, "zgrass."):
            mod = importlib.import_module(info.name)
            found += [f"{info.name}.{name}" for name, v in vars(mod).items()
                      if name.endswith("_cache") and isinstance(v, dict)]
        assert found == []


def test_only_variable_builders_take_a_family():
    """Tau and the Schur calculus read the times t, and the bilinear residue
    its second times s.  Of the public callables of tau, symfun and
    hierarchy, only those that build the variables of a chosen family take
    one: tvar and schur_p, each called with more than one family, and
    TimePolynomial.differentiate, whose (fam, k) names a variable."""
    takes_fam = []
    for modname in ("zgrass.tau", "zgrass.symfun", "zgrass.hierarchy"):
        mod = importlib.import_module(modname)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", "") != modname:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{k}", getattr(obj, k))
                            for k in vars(obj) if not k.startswith("_")]
            for qual, fn in members:
                if inspect.isroutine(fn) and {"fam", "fams", "families"} & set(
                        inspect.signature(fn).parameters):
                    takes_fam.append(qual)
    assert sorted(takes_fam) == ["TimePolynomial.differentiate", "schur_p",
                                 "tvar"]


class TestHall:
    def test_monomial_norms(self):
        # <t1^2, t1^2> = 2!/1 = 2, <t2, t2> = 1/2
        assert hall(t1 * t1, t1 * t1) == 2
        assert hall(t2, t2) == half
        assert hall(t1, t2) == 0

    def test_capped_operand_soundness(self):
        f = (t1 ** 3).with_cap(3)
        assert hall(f, t1 ** 3) == 6
        with pytest.raises(InsufficientPrecision):
            hall(f.differentiate("t", 1), t1 ** 3)

    def test_matches_derivative_route(self):
        polys = [t1 ** 2, t2, schur((2, 1)), t1 * t2 + tconst(3)]
        for f in polys:
            for g in polys:
                assert hall(f, g) == apply_tilde(f, g).constant_term()


@st.composite
def rational_polys(draw, capped=True):
    """Polynomials in t1..t3 and s1 whose coefficients are ints or Fractions
    with denominators up to 12, exact or, if capped, capped at weights 0-6.
    They are built by _canonical, which keeps an int coefficient an int."""
    variables = [("t", 1), ("t", 2), ("t", 3), ("s", 1)]
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        mono = tuple(sorted(
            (v, draw(st.integers(1, 3))) for v in draw(
                st.lists(st.sampled_from(variables), max_size=3, unique=True))))
        terms[mono] = draw(st.integers(-4, 4)
                           | st.fractions(-4, 4, max_denominator=12))
    cap = draw(st.none() | st.integers(0, 6)) if capped else None
    return TimePolynomial._canonical(terms, cap)


def hall_outcome(f, g, pair):
    try:
        return pair(f, g)
    except InsufficientPrecision as exc:
        return f"InsufficientPrecision: {exc}"


class TestHallOracle:
    """hall against the Fraction-sum pairing it replaced."""

    @given(rational_polys(), rational_polys())
    def test_matches_oracle(self, f, g):
        got = hall_outcome(f, g, hall)
        assert got == hall_outcome(f, g, hall_oracle)
        if not isinstance(got, str):
            assert type(got) is Fraction and got == hall(g, f)

    @given(rational_polys(capped=False), rational_polys(capped=False),
           st.fractions(-4, 4, max_denominator=12).filter(bool))
    def test_cancelling_sum_is_fraction_zero(self, f, g, g0):
        # a constant term pairs only with a constant term, at norm 1
        g = g + tconst(g0 - g.constant_term())
        f = f - tconst(hall_oracle(f, g) / g0)
        got = hall(f, g)
        assert got == 0 and type(got) is Fraction


class TestApplyTilde:
    def test_scaled_derivative(self):
        # (1/2) d/dt2 applied to t2^2 gives t2
        assert apply_tilde(t2, t2 * t2) == t2
        assert apply_tilde(t1, t1) == tconst(1)

    def test_operator_must_be_exact(self):
        with pytest.raises(ZgrassError):
            apply_tilde(t1.with_cap(2), t1)

    def test_cap_tracking(self):
        target = (t1 * t2).with_cap(3)
        out = apply_tilde(t2, target)
        assert out.maxweight == 1
        assert out == t1.with_cap(1) * half


@st.composite
def time_polys(draw):
    """Polynomials in t1..t3 and s1, s2 with repeated, zero and heavy terms,
    exact or capped at weights 0-6."""
    variables = [("t", 1), ("t", 2), ("t", 3), ("s", 1), ("s", 2)]
    items = []
    for _ in range(draw(st.integers(0, 5))):
        mono = tuple((v, draw(st.integers(0, 2)))
                     for v in draw(st.permutations(variables))[:3])
        items.append((mono, Fraction(draw(st.integers(-3, 3)),
                                     draw(st.integers(1, 3)))))
    return TimePolynomial(items, draw(st.none() | st.integers(0, 6)))


def _cap(a, b):
    return a if b is None else b if a is None else min(a, b)


def normalized(op, f, g):
    """op(f, g) with its result sorted and merged by the public
    constructor: the normalizing path arithmetic took before.  "scale"
    multiplies by g's constant term, "cap" caps f at g's cap."""
    f_items, g_items = list(f.terms.items()), list(g.terms.items())
    cap = _cap(f.maxweight, g.maxweight)
    if op == "add":
        return TimePolynomial(f_items + g_items, cap)
    if op == "sub":
        return TimePolynomial(f_items + [(m, -c) for m, c in g_items], cap)
    if op == "neg":
        return TimePolynomial([(m, -c) for m, c in f_items], f.maxweight)
    if op == "cap":
        return TimePolynomial(f_items, cap)
    if op == "scale":
        k = g.terms.get((), Fraction(0))
        if not k:
            return TimePolynomial()
        return TimePolynomial([(m, c * k) for m, c in f_items], f.maxweight)
    if f.is_zero() or g.is_zero():
        return TimePolynomial()
    out = []
    for m1, c1 in f_items:
        for m2, c2 in g_items:
            powers = Counter(dict(m1))
            powers.update(dict(m2))
            out.append((tuple(powers.items()), c1 * c2))
    return TimePolynomial(out, cap)


class TestCanonicalArithmetic:
    """Arithmetic results carry sorted monomials, no zero coefficient and
    nothing past the cap, and agree with the normalizing constructor."""

    @given(time_polys(), time_polys())
    def test_results_are_canonical(self, f, g):
        results = {
            "add": f + g,
            "sub": f - g,
            "neg": -f,
            "mul": f * g,
            "scale": f * g.terms.get((), Fraction(0)),
            "cap": f.with_cap(g.maxweight),
        }
        for op, r in results.items():
            for mono, c in r.terms.items():
                assert c and mono == tuple(sorted(mono))
                assert all(mult > 0 for _, mult in mono)
                assert r.maxweight is None or sum(
                    k * mult for (_, k), mult in mono) <= r.maxweight
            assert r == TimePolynomial(r.terms, r.maxweight), op
            assert r == normalized(op, f, g), op

    def test_cap_drops_heavy_sums(self):
        f = (t1 * t2).with_cap(2)
        assert (t1 * t2 + f).terms == {}
        assert (t1 * t2 + f).maxweight == 2


class TestTruncation:
    def test_cap_drops_heavy_monomials(self):
        f = (t1 + t2).with_cap(1)
        assert f.terms == t1.terms
        assert (f * f).maxweight == 1
        assert not (f * f)

    def test_negate_times(self):
        p = schur_p(2)
        assert p.negate_times() == half * t1 * t1 - t2
        assert schur((1,)).negate_times() == -t1

    def test_inverse_unit(self):
        f = (tconst(1) - t1).with_cap(3)
        inv = f.inverse_unit()
        assert inv == (tconst(1) + t1 + t1 ** 2 + t1 ** 3).with_cap(3)
        assert f * inv == tconst(1).with_cap(3)
        with pytest.raises(ZgrassError):
            (tconst(1) - t1).inverse_unit()
        with pytest.raises(ZgrassError):
            t1.with_cap(3).inverse_unit()

    def test_component_soundness(self):
        f = (t1 + t2).with_cap(1)
        assert f.component(1) == t1
        with pytest.raises(InsufficientPrecision):
            f.component(2)

    def test_families_are_independent(self):
        s1 = tvar(1, "s")
        assert hall(t1, s1) == 0
        assert (t1 + s1) * (t1 - s1) == t1 ** 2 - s1 ** 2


class TestSqrt:
    def test_perfect_square(self):
        q = (tconst(1) + t1) ** 2
        assert sqrt_series(q, 2) == tconst(1) + t1

    def test_series_root(self):
        q = tconst(1) + t2
        r = sqrt_series(q, 4)
        assert r == tconst(1) + half * t2 - Fraction(1, 8) * t2 ** 2
        assert ((r * r).with_cap(4)) == q.with_cap(4)

    def test_needs_unit_one(self):
        with pytest.raises(ZgrassError):
            sqrt_series(tconst(2), 2)

    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_root_squares_back(self, a, b):
        q = tconst(1) + a * t1 + b * t2
        r = sqrt_series(q, 5)
        assert (r * r).with_cap(5) == q.with_cap(5)
