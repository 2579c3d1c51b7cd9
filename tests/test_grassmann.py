import ast
import importlib
import inspect
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import zgrass
from zgrass import grassmann
from zgrass.errors import (
    DependentGenerators,
    IndexMismatch,
    NonzeroIndex,
    NotSigmaInvariant,
    WindowTooSmall,
    ZeroInput,
    ZgrassError,
)
from zgrass.grassmann import FramePoint, is_prym_flow
from zgrass.krichever import stabilizer
from zgrass.linalg import echelon
from zgrass.series import LaurentSeries, exp_floor, pair_sigma
from zgrass.symfun import (
    Partition,
    TimePolynomial,
    partitions_upto,
    schur,
    schur_p,
    tconst,
    tvar,
)
from zgrass.tau import tau_flow_consistency, tau_function, times_flow

from frame_oracles import (
    assemble_even_odd,
    coset_reps,
    echelon_calls,
    exchange_defect,
    flipped,
    nullspace_complement,
    prym_flow_full,
)

ONE = LaurentSeries.one()


def mono(e, c=1):
    return LaurentSeries({e: c})


def series(d):
    return LaurentSeries(d)


def cusp(window=(-8, 8)):
    """Coordinate ring of the cuspidal cubic: span{1} over tail_j = 1."""
    return FramePoint.from_gens([ONE], 1, window)


def point_a(a, window=(-8, 8)):
    """span{z^-1 + a} over tail_j = 1; the pencil through the vacuum."""
    return FramePoint.from_gens([series({-1: 1, 0: a})], 1, window)


def exp_times(cap, floor, fam="t"):
    """exp(sum t_k z^-k) materialized down to the floor, weights capped."""
    return LaurentSeries(
        {-n: schur_p(n, fam).with_cap(cap) for n in range(0, -floor + 1)}
    )


class TestFrames:
    def test_vacuum(self):
        v = FramePoint.vacuum()
        assert v.charge == 0
        assert v.rows == ()
        assert v.tail_j == 0
        assert v.exact

    def test_monic_normalization(self):
        u = FramePoint.from_gens([series({-1: 2, 0: 3})], 1)
        assert u.rows[0] == series({-1: 1, 0: Fraction(3, 2)})
        assert u.pivots == (-1,)

    def test_cross_reduction(self):
        u = FramePoint.from_gens(
            [series({-2: 1, -1: 1}), series({-1: 1, 0: 1})], 2
        )
        assert u.pivots == (-1, -2)
        # the deeper row is cleared at the other pivot
        assert u.rows[1].coeff(-1) == 0
        assert u.rows[1] == series({-2: 1, 0: -1})

    def test_dependent_generators(self):
        with pytest.raises(DependentGenerators):
            FramePoint.from_gens([mono(-1), mono(-1, 2)], 1)
        # a generator inside the tail is dependent too
        with pytest.raises(DependentGenerators):
            FramePoint.from_gens([mono(-5)], 1)

    def test_tail_absorption(self):
        u = FramePoint.from_gens([ONE, mono(-2), mono(-3)], 3)
        assert u.tail_j == 1
        assert u.pivots == (0,)
        assert u.charge == 0

    def test_below_tail_dropped(self):
        # z^-1 plus tail_j = 1 is the vacuum again once the junk is gone
        u = FramePoint.from_gens([series({-1: 1, -5: 7})], 1)
        assert u.rows == ()
        assert u.same_subspace(FramePoint.vacuum())

    def test_charge_formula(self):
        assert FramePoint.from_gens([mono(-1)], 3).charge == -2
        assert FramePoint.from_gens([mono(1), ONE], 0).charge == 2

    def test_pivot_validation(self):
        with pytest.raises(IndexMismatch):
            FramePoint((ONE,), (0, 1), 0)
        with pytest.raises(IndexMismatch):
            FramePoint((mono(-1), ONE), (-1, 0), 1)
        with pytest.raises(IndexMismatch):
            FramePoint((mono(-3),), (-3,), 1)
        # an exact row must be nonzero and have its pivot as valuation
        with pytest.raises(IndexMismatch):
            FramePoint((ONE, LaurentSeries()), (0, -1), 1)
        with pytest.raises(IndexMismatch):
            FramePoint((mono(1),), (0,), 1)
        # an exact frame is canonical: monic at each pivot, zero at the
        # other pivots, and no trailing row z^-tail_j (that is the tail)
        z = mono(1)
        with pytest.raises(IndexMismatch):
            FramePoint([z, ONE + z], [1, 0], 0)
        with pytest.raises(IndexMismatch):
            FramePoint([mono(0, 2)], [0], 0)
        with pytest.raises(IndexMismatch):
            FramePoint([mono(-1)], [-1], 1)


class TestMembership:
    def test_contains(self):
        c = cusp()
        assert c.contains(ONE)
        assert c.contains(mono(-2))
        assert c.contains(series({0: 1, -7: 5}))
        assert not c.contains(mono(-1))
        assert not c.contains(mono(1))

    def test_truncated_membership(self):
        # a truncated series is unknown from its truncation up, above the
        # tail: z^-2 known below 0 completes to z^-2 + z, not in the vacuum
        for u, f in ((FramePoint.vacuum(), LaurentSeries({-2: 1}, trunc=0)),
                     (cusp(), LaurentSeries({0: 1}, trunc=5))):
            with pytest.raises(ZgrassError, match="exact series"):
                u.contains(f)

    def test_same_subspace(self):
        a = cusp()
        b = FramePoint.from_gens([series({0: 1, -2: 4}), mono(-2)], 2)
        assert a.same_subspace(b)
        assert b.same_subspace(a)
        assert not a.same_subspace(FramePoint.vacuum())

    def test_same_subspace_refuses_approximate_frames(self):
        # refused whatever the charges, so a False is always a certificate
        moved = FramePoint.vacuum().flow(series({0: 1, 1: 2}))
        lower = FramePoint.from_gens([mono(-1)], 3)
        for other in (FramePoint.vacuum(), lower):
            with pytest.raises(ZgrassError, match="exact frames"):
                moved.same_subspace(other)
            with pytest.raises(ZgrassError, match="exact frames"):
                other.same_subspace(moved)


class TestPlucker:
    def test_vacuum_coordinates(self):
        v = FramePoint.vacuum()
        assert v.plucker(()) == 1
        assert v.plucker((1,)) == 0
        assert v.plucker((3, 2)) == 0

    def test_cusp_coordinates(self):
        c = cusp()
        assert c.plucker((1,)) == 1
        assert c.plucker(()) == 0
        assert c.plucker((2,)) == 0
        assert c.plucker((1, 1)) == 0
        assert c.plucker((2, 2, 1)) == 0

    def test_pencil_point_numeric(self):
        a = Fraction(3, 5)
        u = point_a(a)
        assert u.plucker(()) == 1
        assert u.plucker((1,)) == a
        assert u.plucker((1, 1)) == 0
        assert u.plucker((2,)) == 0

    def test_pencil_point_symbolic(self):
        a = tvar(1, "a")
        u = point_a(a)
        assert u.plucker(()) == 1
        assert u.plucker((1,)) == a
        assert not u.plucker((2,))

    def test_flowed_line_minors(self):
        # (1 + a z) * vacuum has an honest rank-two signature
        a = Fraction(2, 3)
        u = FramePoint.vacuum().flow(series({0: 1, 1: a}))
        assert not u.exact
        assert u.charge == 0
        assert u.plucker(()) == 1
        assert u.plucker((1,)) == a
        assert u.plucker((1, 1)) == a * a
        assert u.plucker((2,)) == 0

    def test_flowed_line_minors_symbolic(self):
        a = tvar(1, "a")
        u = FramePoint.vacuum().flow(LaurentSeries({0: 1, 1: a}))
        assert u.plucker((1, 1)) == a * a
        assert not u.plucker((2,))

    def test_window_exhaustion(self):
        u = FramePoint.vacuum().flow(series({0: 1, 1: 1}), )
        deep = (1,) * (len(u.rows) + 1)
        with pytest.raises(WindowTooSmall):
            u.plucker(deep)

    def test_exact_minor_below_the_window_floor(self):
        # columns 0, -1, -2 against the tail rows z^-1, z^-2, z^-3
        assert FramePoint.vacuum((-2, 2)).plucker((1, 1, 1)) == 0

    @settings(max_examples=200)
    @given(st.data())
    def test_exact_minors_ignore_the_window(self, data):
        u = data.draw(small_frames())
        lam = data.draw(st.lists(st.integers(1, 4), max_size=len(u.rows) + 2)
                        .map(lambda ps: sorted(ps, reverse=True)))
        narrow, wide = (FramePoint(u.rows, u.pivots, u.tail_j, w)
                        for w in ((-1, 1), (-12, 12)))
        assert narrow.plucker(lam) == wide.plucker(lam)


class TestFlow:
    def test_monomial_shift(self):
        u = FramePoint.vacuum().flow(mono(2, 3))
        assert u.exact
        assert u.charge == 2
        assert u.tail_j == -2
        assert u.contains(mono(1))
        assert not u.contains(mono(2))

    def test_anchor_charges(self):
        v = FramePoint.vacuum()
        assert v.flow(series({0: 1, 1: 5})).charge == 0
        assert v.flow(series({-1: Fraction(1, 2), 0: 1})).charge == 0
        assert v.flow(series({1: 1, 2: 1})).charge == 1

    def test_flow_input_validation(self):
        v = FramePoint.vacuum()
        with pytest.raises(ZeroInput):
            v.flow(LaurentSeries.zero())
        with pytest.raises(ZgrassError):
            v.flow(series({0: 2, 1: 1}))
        with pytest.raises(ZgrassError):
            v.flow(LaurentSeries({0: 1}, trunc=3))

    def test_monomial_roundtrip(self):
        u = point_a(Fraction(1, 4))
        w = u.flow(mono(3)).flow(mono(-3))
        assert w.same_subspace(u)

    def test_vacuum_flow_tau(self):
        # the vacuum minor of exp(sum t_k z^-k) U is the tau of U; here U is
        # span{z^-1 + a, z^-2 - a^2} over tail 2, of coordinates 1, a, a^2
        a = Fraction(2, 3)
        u = FramePoint.from_gens([series({-1: 1, 0: a}),
                                  series({-2: 1, 0: -a * a})], 2)
        moved = u.flow(exp_times(2, -8))
        expect = (
            tconst(1) + schur((1,)) * a + schur((1, 1)) * a * a
        ).with_cap(2)
        assert not moved.exact
        assert moved.plucker(()) == expect == tau_function(u, 2)

    def test_cusp_flow_tau(self):
        moved = cusp().flow(exp_times(2, -8))
        assert moved.plucker(()) == schur((1,)).with_cap(2)


class TestOrthogonal:
    def test_shifted_vacuum(self):
        v = FramePoint.vacuum()
        perp = v.flow(mono(2)).orthogonal()
        assert perp.same_subspace(v.flow(mono(-2)))

    def test_pencil_complement(self):
        u = point_a(1)
        perp = u.orthogonal()
        assert perp.rows == (series({-1: 1, 0: -1}),)
        assert perp.tail_j == 1

    def test_biduality(self):
        for u in (point_a(1), cusp(), point_a(Fraction(-2, 7))):
            assert u.orthogonal().orthogonal().same_subspace(u)

    def test_charge_antisymmetry(self):
        for u in (cusp(), FramePoint.from_gens([mono(-1)], 3)):
            assert u.orthogonal().charge == -u.charge

    def test_flip_complement_fixes_isotropic_point(self):
        u = point_a(Fraction(5, 3))
        assert flipped(u.orthogonal()).same_subspace(u)

    def test_polynomial_rows_are_refused(self):
        # a flow by the universal unit has rows with polynomial
        # coefficients, and a pivot without a constant term is no unit:
        # the complement refuses the frame before any arithmetic on them
        u = FramePoint.from_gens([series({-1: 1, 1: 2})], 1, (-16, 16))
        with pytest.raises(ZgrassError, match="exact frame"):
            u.flow(times_flow(3, -8)).orthogonal()

    def test_complement_runs_no_elimination(self, monkeypatch):
        """The complement of a one-row point over tail 2000 reads the
        canonical row as it is: no echelon pass, not even over that row."""
        u = FramePoint.from_gens([series({-1: 1, 0: 2})], 2000)
        calls = echelon_calls(monkeypatch)
        perp = u.orthogonal()
        assert calls == []
        assert perp.tail_j == 1 and perp.charge == -u.charge == 1999


class TestIsotropy:
    def test_vacuum_isotropic(self):
        rep = FramePoint.vacuum().isotropy()
        assert rep.isotropic
        assert rep.parity == 0

    def test_pencil_isotropic(self):
        rep = point_a(Fraction(7, 2)).isotropy()
        assert rep.isotropic
        assert rep.parity == 0

    def test_cusp_parity(self):
        rep = cusp().isotropy()
        assert rep.isotropic
        assert rep.parity == 1

    def test_charge_must_vanish(self):
        with pytest.raises(NonzeroIndex):
            FramePoint.vacuum().flow(mono(1)).isotropy()

    def test_generic_unit_breaks_isotropy(self):
        moved = cusp().flow(series({0: 1, 1: 2}))
        rep = moved.isotropy()
        assert not rep.isotropic
        assert rep.witness[-1] == 4

    def test_odd_exponential_preserves_isotropy(self):
        g = exp_floor(series({-1: 1, -3: Fraction(1, 2)}), -8)
        assert is_prym_flow(g, -8)
        rep = cusp().flow(g).isotropy()
        assert rep.isotropic
        assert rep.parity == 1


class TestSplitAssemble:
    def test_vacuum_split(self):
        we, wo = FramePoint.vacuum().split_even_odd()
        assert we.charge == 0 and wo.charge == 0
        assert we.rows == () and wo.rows == ()
        assert we.tail_j == 0 and wo.tail_j == 0

    def test_cusp_split(self):
        we, wo = cusp().split_even_odd()
        assert we.charge == 1
        assert wo.charge == -1
        # even part is all of k[w^-1]; odd part starts at w^-2
        assert we.contains(ONE) and we.contains(mono(-1))
        assert wo.tail_j == 1

    def test_two_sided_row(self):
        u = FramePoint.from_gens([series({-2: 1, 2: 1})], 2)
        we, wo = u.split_even_odd()
        assert we.rows == (series({-1: 1, 1: 1}),)
        assert we.charge == 0
        assert wo.charge == -1

    def test_not_invariant(self):
        with pytest.raises(NotSigmaInvariant):
            point_a(1).split_even_odd()

    def test_roundtrip(self):
        for u in (
            FramePoint.vacuum(),
            cusp(),
            FramePoint.from_gens([series({-2: 1, 2: 1})], 2),
            FramePoint.from_gens([ONE], 3),
        ):
            we, wo = u.split_even_odd()
            assert assemble_even_odd(we, wo).same_subspace(u)
            assert we.charge + wo.charge == u.charge


class TestCosets:
    def test_vacuum_mod_cusp(self):
        reps = coset_reps(FramePoint.vacuum(), cusp())
        assert reps == [mono(-1)]

    def test_cusp_mod_vacuum(self):
        reps = coset_reps(cusp(), FramePoint.vacuum())
        assert reps == [ONE]

    def test_self_cosets_empty(self):
        v = FramePoint.vacuum()
        assert coset_reps(v, v) == []


def two_pass_from_gens(gens, tail_j, allow_dependent=False):
    """FramePoint.from_gens as it was before it called linalg.echelon:
    leading-term reduction by valuation, then a cross-reduction pass; kept
    as an oracle.  Returns (rows, pivots, tail_j)."""
    by_piv = {}
    for g in gens:
        r = g.drop_below(-tail_j)
        while r.coeffs:
            v = r.valuation()
            if v in by_piv:
                r = r - by_piv[v] * r.coeff(v)
            else:
                by_piv[v] = r * (Fraction(1) / r.coeff(v))
                break
        else:
            if not allow_dependent:
                raise DependentGenerators("dependent generator")
    for p in sorted(by_piv):
        row = by_piv[p]
        for q in sorted(by_piv):
            if q != p and row.coeff(q):
                row = row - by_piv[q] * row.coeff(q)
        by_piv[p] = row
    pivots = sorted(by_piv, reverse=True)
    rows = [by_piv[p] for p in pivots]
    while rows and pivots[-1] == -tail_j and rows[-1] == mono(-tail_j):
        rows.pop()
        pivots.pop()
        tail_j -= 1
    return rows, pivots, tail_j


def seen_dict_coset_reps(a, b):
    """coset_reps as it was before it called linalg.echelon; kept as an
    oracle."""
    jm = max(a.tail_j, b.tail_j)
    cands = list(a.rows) + [mono(-j) for j in range(a.tail_j + 1, jm + 1)]
    reps = []
    seen = {}
    for v in cands:
        r = b.reduce(v).drop_below(-b.tail_j)
        while r.coeffs:
            lead = r.valuation()
            if lead in seen:
                r = r - seen[lead] * r.coeff(lead)
            else:
                seen[lead] = r * (Fraction(1) / r.coeff(lead))
                reps.append(v)
                break
    return reps


COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
SERIES = st.dictionaries(st.integers(-5, 3), COEFFS, max_size=4).map(series)


@st.composite
def generator_lists(draw):
    """Random generators over a random tail, with zero, duplicate and
    combination generators and tail-boundary monomials inserted."""
    tail = draw(st.integers(0, 3))
    gens = draw(st.lists(SERIES, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "duplicate", "combination",
                                     "monomial")))
        if kind == "monomial":
            new = mono(-draw(st.integers(tail - 1, tail)))
        elif kind == "zero" or not gens:
            new = LaurentSeries()
        elif kind == "duplicate":
            new = draw(st.sampled_from(gens))
        else:
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            new = a * draw(COEFFS) + b * draw(COEFFS)
        gens.insert(draw(st.integers(0, len(gens))), new)
    return gens, tail


@st.composite
def small_frames(draw):
    """Exact frames with 0-3 rows over a tail of 0-3."""
    tail = draw(st.integers(0, 3))
    visible = st.dictionaries(st.integers(-tail, 3), COEFFS, max_size=4)
    gens = draw(st.lists(visible.map(series), max_size=3))
    return FramePoint.from_gens(gens, tail, allow_dependent=True)


class TestBasis:
    @settings(max_examples=200)
    @given(small_frames(), st.integers(0, 6))
    def test_rows_then_tail_monomials(self, u, n):
        basis = u.basis(n)
        k = min(n, len(u.rows))
        assert len(basis) == n
        assert tuple(basis[:k]) == u.rows[:n]
        assert basis[k:] == [mono(-(u.tail_j + 1 + i)) for i in range(n - k)]
        assert all(u.contains(r) for r in basis)

    def test_a_frame_holds_no_cache(self):
        # extends test_symfun's guard on module-level memo dicts
        assert [name for name, v in vars(FramePoint.vacuum()).items()
                if name.endswith("_cache") and isinstance(v, dict)] == []


class TestEchelonOracles:
    @settings(max_examples=200)
    @given(generator_lists(), st.booleans())
    def test_from_gens_matches_two_pass(self, drawn, allow_dependent):
        gens, tail = drawn
        try:
            want = two_pass_from_gens(gens, tail, allow_dependent)
        except DependentGenerators:
            with pytest.raises(DependentGenerators):
                FramePoint.from_gens(gens, tail,
                                     allow_dependent=allow_dependent)
            return
        u = FramePoint.from_gens(gens, tail, allow_dependent=allow_dependent)
        assert (list(u.rows), list(u.pivots), u.tail_j) == want

    @settings(max_examples=100)
    @given(small_frames(), small_frames())
    def test_coset_reps_match_seen_dict(self, a, b):
        assert coset_reps(a, b) == seen_dict_coset_reps(a, b)
        assert coset_reps(b, a) == seen_dict_coset_reps(b, a)


@st.composite
def prym_candidates(draw):
    """(g, the floor g was cut at): odd exponentials, rational or in a
    family, cut at any floor; 1 + a z; rational flows; and the even
    exponential exp(z^-2) cut at -6.  A g that nothing cut has its valuation
    as its floor."""
    kind = draw(st.sampled_from(("odd", "linear", "rational", "even")))
    if kind == "odd":
        coeff = st.one_of(COEFFS, st.just(tvar(1, "a")))
        u = series({-k: draw(coeff) for k in (1, 3, 5)})
        floor = draw(st.integers(-12, -1))
        return exp_floor(u, floor), floor
    if kind == "linear":
        g = series({0: 1, 1: draw(COEFFS)})
    elif kind == "rational":
        g = draw(rational_flows())
    else:
        return exp_floor(mono(-2), -6), -6
    return g, g.valuation()


class TestPrymFlows:
    @settings(max_examples=150)
    @given(prym_candidates())
    def test_matches_the_whole_product(self, cut):
        assert is_prym_flow(*cut) == prym_flow_full(*cut)

    def test_truncated_odd_exponential(self):
        g = exp_floor(series({-1: 2, -3: 1, -5: Fraction(1, 3)}), -12)
        assert is_prym_flow(g, -12)

    def test_generic_unit_fails(self):
        assert not is_prym_flow(series({0: 1, 1: 1}), 0)

    def test_even_exponential_fails(self):
        assert not is_prym_flow(exp_floor(mono(-2), -6), -6)

    def test_even_part_cancelled_by_the_cut_fails(self):
        """exp(z^-1 - z^-2/2) cut at -2 is 1 + z^-1: its z^-2 coefficient
        cancels, so the valuation -1 is above the cut.  The product
        (1 + z^-1)(1 - z^-1) = 1 - z^-2 is certified from the floor -2 up,
        and its z^-2 term shows the even flow."""
        g = exp_floor(series({-1: 1, -2: Fraction(-1, 2)}), -2)
        assert g == ONE + mono(-1)
        assert not is_prym_flow(g, -2)
        assert not prym_flow_full(g, -2)

    def test_constants_and_monomials(self):
        assert is_prym_flow(ONE, 0)
        assert not is_prym_flow(mono(1), 1)


@st.composite
def exact_points(draw):
    tail = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        lo = draw(st.integers(-tail, 0))
        coeffs = {
            lo + k: draw(st.integers(-3, 3))
            for k in range(draw(st.integers(0, 3)) + 1)
        }
        coeffs[lo] = draw(st.integers(1, 3))
        gens.append(LaurentSeries(coeffs))
    try:
        return FramePoint.from_gens(gens, tail, (-12, 12))
    except DependentGenerators:
        return FramePoint.from_gens(gens[:1], tail, (-12, 12))


@st.composite
def rational_flows(draw):
    """A non-monomial unit: 1 at its anchor 0 or -1, and one to three
    rational terms below the anchor or at positive exponents."""
    anchor = draw(st.integers(-1, 0))
    exps = draw(st.lists(st.sampled_from((anchor - 2, anchor - 1, 1, 2, 3)),
                         min_size=1, max_size=3, unique=True))
    nonzero = st.fractions(-3, 3, max_denominator=4).filter(bool)
    return series({anchor: 1, **{e: draw(nonzero) for e in exps}})


def read_all(read):
    """The list read() returns, or the type and message of its refusal."""
    try:
        return read()
    except ZgrassError as exc:
        return type(exc), str(exc)


def assert_pluckers_are_minors(u, lams):
    """The canonical rows read what plucker reads, partition by partition."""
    assert u.pluckers(lams) == [u.plucker(lam) for lam in lams]


# every partition through weight 5: (1^4) and (1^5) outrun three rows
LAMS = partitions_upto(5)


@st.composite
def family_units(draw, floor):
    """exp(a_1 z^-1 + c z^-3) down to the floor, c a rational or the
    variable b_3, its polynomial coefficients capped at a weight 1-5 as
    `zgrass family-square` caps them, or the universal flow in the times."""
    if draw(st.booleans()):
        return times_flow(draw(st.integers(1, 5)), floor)
    c3 = draw(st.one_of(COEFFS, st.just(tvar(3, "b"))))
    g = exp_floor(series({-1: tvar(1, "a"), -3: c3}), floor)
    cap = draw(st.integers(1, 5))
    return LaurentSeries({
        e: c.with_cap(cap) if isinstance(c, TimePolynomial) else c
        for e, c in g.coeffs.items()})


@st.composite
def flowed_frames(draw):
    """small_frames in a window of radius 2-5, moved once by a rational or
    family flow, the one way to an approximate frame: a shallow window
    leaves few certified rows."""
    lo = draw(st.integers(-5, -2))
    u = draw(small_frames())
    u = FramePoint(u.rows, u.pivots, u.tail_j, (lo, -lo))
    return u.flow(draw(st.one_of(rational_flows(), family_units(lo))))


class TestPluckers:
    @settings(max_examples=200)
    @given(small_frames())
    # charge -2; charge 0 off the big cell (pi_() = 0); charge 3
    @example(FramePoint.from_gens([ONE], 3))
    @example(FramePoint.from_gens([mono(-3), mono(0), mono(1)], 3))
    @example(FramePoint.from_gens([mono(2), mono(1), mono(0)], 0))
    # polynomial coefficients: blocks without a unit pivot fall to det_ring
    @example(point_a(tvar(1, "a")))
    @example(FramePoint.from_gens(
        [series({-2: 1, 0: tvar(1, "a"), 1: tvar(2, "b")}),
         series({-1: 1, 1: tvar(1, "c")})], 2))
    def test_exact_frames(self, u):
        # LAMS, its reverse, and each partition alone: a list not closed
        # under shrinking leaves some pivot columns unsampled, so rows meet
        # the minor off their pivot
        for lams in (LAMS, LAMS[::-1], *([lam] for lam in LAMS)):
            assert_pluckers_are_minors(u, lams)

    def test_refusals(self):
        # a flowed frame certifies its three explicit rows: plucker answers
        # (1^3) with 0, since the flow fixes the vacuum, and refuses (1^4)
        u = FramePoint.vacuum((-3, 3)).flow(times_flow(4, -3))
        assert u.plucker((1, 1, 1)) == 0
        assert read_all(lambda: u.plucker((1, 1, 1, 1))) == (
            WindowTooSmall, "frame holds 3 certified rows, need 4")

    def test_big_cell_blocks_are_durfee_sized(self, monkeypatch):
        # a canonical frame's pivot columns are unit vectors: on the big
        # cell each block is Durfee-sized
        u = FramePoint.from_gens(
            [series({-3: 1, 1: 2, 2: -1}), series({-2: 1, 0: 3, 3: 1}),
             series({-1: 1, 2: 1})], 3)
        sizes, det_unit = [], grassmann.det_unit

        def recording(rows):
            sizes.append(len(rows))
            return det_unit(rows)

        monkeypatch.setattr(grassmann, "det_unit", recording)
        lams = partitions_upto(6)
        u.pluckers(lams)
        assert sizes == [sum(p > i for i, p in enumerate(lam))
                         for lam in lams if len(lam) <= 3]


class TestComplementOracle:
    @settings(max_examples=150)
    @given(exact_points())
    def test_echelon_keeps_canonical_rows(self, u):
        # orthogonal hands kernel the rows as they are: they are already
        # the reduced basis echelon would return
        coeffs = [r.coeffs for r in u.rows]
        assert echelon(coeffs) == (dict(zip(u.pivots, coeffs)),
                                   list(range(len(u.rows))))

    @settings(max_examples=150)
    @given(exact_points())
    def test_matches_nullspace_complement(self, u):
        got, want = u.orthogonal(), nullspace_complement(u)
        assert (got.rows, got.pivots, got.tail_j, got.window, got.exact) == (
            want.rows, want.pivots, want.tail_j, want.window, want.exact)


class TestExactFramesReadNoWindow:
    @settings(max_examples=100, deadline=None)
    @given(small_frames(), st.integers(0, 4), st.integers(1, 3))
    def test_two_windows_agree(self, u, cap, n):
        """An exact frame answers the same under the windows [-1, 1] and
        [-64, 64]: its complement, isotropy, coordinates, tau, stabilizer
        and tau's flow check read no window."""
        def answers(v):
            dual = v.orthogonal()
            return ((dual.rows, dual.pivots, dual.tail_j, dual.exact),
                    v.isotropy() if v.charge == 0 else None,
                    v.pluckers(LAMS), tau_function(v), stabilizer(v, n),
                    tau_flow_consistency(v, cap))

        narrow, wide = (FramePoint(u.rows, u.pivots, u.tail_j, w)
                        for w in ((-1, 1), (-64, 64)))
        assert answers(narrow) == answers(wide)

    def test_approximate_frames_keep_the_refusal(self):
        """The complement of a flowed frame is refused under the window
        its tail would start below, and under one wide enough to hold it."""
        for w in ((-2, 2), (-64, 64)):
            u = point_a(2, w).flow(series({0: 1, 1: 1, 2: 1}))
            with pytest.raises(ZgrassError, match="exact frame"):
                u.orthogonal()


# flow, the coordinates, the complement and the membership tests, each
# called as an exact frame's caller would: a flowed frame raises
REFUSED = {
    "flow": lambda u: u.flow(mono(1)),
    "pluckers": lambda u: u.pluckers([Partition(())]),
    "orthogonal": FramePoint.orthogonal,
    "contains": lambda u: u.contains(ONE),
    "is_sigma_invariant": FramePoint.is_sigma_invariant,
    "same_subspace": lambda u: u.same_subspace(FramePoint.vacuum()),
}


@pytest.mark.parametrize("method", sorted(REFUSED))
@settings(max_examples=30, deadline=None)
@given(u=flowed_frames())
# polynomial rows whose pivot is no unit; a complement whose tail would
# start below the window; three certified rows; a row zero at its
# declared pivot, (z^-1 - 1)(1 + z^-1) = z^-2 - 1
@example(u=FramePoint.from_gens([series({-1: 1, 1: 2})], 1, (-16, 16))
         .flow(times_flow(3, -8)))
@example(u=point_a(2, (-2, 2)).flow(series({0: 1, 1: 1, 2: 1})))
@example(u=FramePoint.vacuum((-3, 3)).flow(times_flow(4, -3)))
@example(u=point_a(-1, (-4, 4)).flow(series({0: 1, -1: 1})))
def test_flowed_frames_answer_only_their_coordinates(method, u):
    """One flow of an exact frame is the one approximate frame: minor and
    plucker read its explicit rows, and refuse more columns than those;
    the computations in REFUSED refuse the frame."""
    with pytest.raises(ZgrassError, match="exact frame"):
        REFUSED[method](u)
    m = len(u.rows)
    for lam in LAMS:
        if len(lam) <= m:
            u.plucker(lam)
        else:
            with pytest.raises(WindowTooSmall, match="certified rows"):
                u.plucker(lam)
    assert u.minor(range(u.charge - 1, u.charge - 1 - m, -1)) == u.plucker(())


class _ExactFalseCalls(ast.NodeVisitor):
    """The qualified names of the functions holding a FramePoint(...) or
    cls(...) call that passes exact=False, or exact by position."""

    def __init__(self):
        self.scope, self.found = [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Call(self, node):
        if getattr(node.func, "id", None) in ("FramePoint", "cls") and (
                len(node.args) >= 5 or any(
                k.arg == "exact" and isinstance(k.value, ast.Constant)
                and k.value.value is False for k in node.keywords)):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_only_flow_builds_an_approximate_frame():
    """No path of the package but FramePoint.flow builds an approximate
    frame: span_closure certifies or refuses, and tau's flow check reads
    one block of the rows."""
    calls = _ExactFalseCalls()
    for path in sorted(Path(zgrass.__file__).parent.glob("*.py")):
        calls.visit(ast.parse(path.read_text(), str(path)))
    assert calls.found == ["FramePoint.flow"]


class TestProperties:
    @given(exact_points())
    def test_biduality(self, u):
        assert u.orthogonal().orthogonal().same_subspace(u)

    @given(exact_points(), st.integers(-3, 3))
    def test_exact_results_are_canonical(self, u, n):
        # same_subspace compares exact frames field by field, so an exact
        # frame a method returns is the one from_gens builds from its rows
        for w in (u.orthogonal(), u.flow(mono(n))):
            c = FramePoint.from_gens(w.rows, w.tail_j, w.window,
                                     allow_dependent=True)
            assert (w.rows, w.pivots, w.tail_j, w.window, w.exact) == (
                c.rows, c.pivots, c.tail_j, c.window, c.exact)

    @given(exact_points())
    def test_complement_charge(self, u):
        assert u.orthogonal().charge == -u.charge

    @given(exact_points(), st.integers(-3, 3))
    def test_monomial_flow_roundtrip(self, u, n):
        assert u.flow(mono(n)).flow(mono(-n)).same_subspace(u)

    @given(exact_points())
    def test_empty_partition_minor_matches_frame(self, u):
        # pi_() samples the columns just below the charge line
        d = u.charge
        n = len(u.rows)
        cols = tuple(d - i for i in range(1, n + 1))
        assert u.plucker(()) == u.minor(cols)


class TestExchange:
    DIAGRAMS = [(), (1,), (2,), (1, 1), (2, 1)]

    def test_cusp_relations(self):
        u = cusp()
        for la in self.DIAGRAMS:
            for lb in self.DIAGRAMS:
                assert exchange_defect(u, la, lb) == 0

    def test_pencil_relations_with_slots(self):
        u = point_a(Fraction(2, 3))
        for la in self.DIAGRAMS:
            for lb in self.DIAGRAMS:
                for slot in (0, 1):
                    assert exchange_defect(u, la, lb, slot) == 0

    def test_two_row_relations(self):
        u = FramePoint.from_gens(
            [series({-2: 1, 0: 3}), series({-1: 1, 1: 2})], 2
        )
        for la in self.DIAGRAMS:
            for lb in self.DIAGRAMS:
                assert exchange_defect(u, la, lb) == 0

    def test_negative_charge_chart(self):
        u = FramePoint.from_gens([series({-2: 1, 0: 5})], 2)
        for la in self.DIAGRAMS:
            assert exchange_defect(u, la, (1,)) == 0

    def test_relation_has_content(self):
        # both minors of at least one pair are nonzero, so the cancellation
        # is doing real work rather than comparing zeros
        u = point_a(Fraction(2, 3))
        assert u.plucker(()) and u.plucker((1,))

    @given(exact_points())
    def test_random_frames(self, u):
        for la, lb in (((), (1,)), ((2,), (1, 1)), ((2, 1), (1,))):
            assert exchange_defect(u, la, lb) == 0


@st.composite
def isotropic_shapes(draw):
    """span{z^p + c z^(-p-1)} over tail p+1, with one of z^e, z^(-1-e)
    added for each e < p: charge 0 and isotropic for the sign flip, since
    z^e pairs only with z^(-1-e) and the row pairs to c - c with itself."""
    p = draw(st.integers(0, 2))
    gens = [series({p: 1, -p - 1: draw(COEFFS)})]
    gens += [mono(draw(st.sampled_from((e, -1 - e)))) for e in range(p)]
    return FramePoint.from_gens(gens, p + 1)


class TestSignFlip:
    @settings(max_examples=300)
    @given(st.one_of(small_frames(), isotropic_shapes()))
    def test_twisted_complement_and_isotropy(self, u):
        # the flip of the residue complement pairs to zero with the point
        # under pair_sigma and has the opposite charge, so it is the whole
        # twisted complement; below the floor nothing in either space can
        # meet a partner, since neither reaches above -floor - 1
        twisted = flipped(u.orthogonal())
        assert twisted.charge == -u.charge
        reach = max([abs(u.tail_j), abs(twisted.tail_j)]
                    + [r.top for r in u.rows + twisted.rows])
        rows_u = u.basis(len(u.rows) + reach + 1 - u.tail_j)
        rows_t = twisted.basis(len(twisted.rows) + reach + 1 - twisted.tail_j)
        assert all(pair_sigma(a, b) == 0 for a in rows_u for b in rows_t)
        if u.charge == 0:
            assert u.isotropy().isotropic == u.same_subspace(twisted)


def test_only_the_normal_form_takes_a_substitution():
    """The sign flip is the one involution, a series method: of the public
    callables of every zgrass module, only LaurentSeries.substitute and
    normalize_involution take a substitution (its image series, named sub
    or s), and zgrass exports no map type."""
    takes_sub = []
    for info in pkgutil.iter_modules(zgrass.__path__):
        modname = f"zgrass.{info.name}"
        mod = importlib.import_module(modname)
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", "") != modname:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                assert not name.endswith("Map"), name
                members += [(f"{name}.{k}", getattr(obj, k))
                            for k in vars(obj) if not k.startswith("_")]
            for qual, fn in members:
                if inspect.isroutine(fn) and {"sub", "s"} & set(
                        inspect.signature(fn).parameters):
                    takes_sub.append(qual)
    assert sorted(takes_sub) == ["LaurentSeries.substitute",
                                 "normalize_involution"]
    assert not [n for n in zgrass.__all__
                if n.endswith("Map") or n == "sigma0"]
