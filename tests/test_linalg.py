import inspect
import pkgutil
import re
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import sympy
from sympy.polys.matrices import DomainMatrix

import zgrass
from zgrass import linalg
from zgrass.errors import ZgrassError
from zgrass.grassmann import FramePoint
from zgrass.linalg import (
    det_field, det_ring, det_unit, echelon, kernel, nullspace, rref)
from zgrass.series import LaurentSeries
from zgrass.symfun import TimePolynomial, tconst, tvar

from frame_oracles import two_pass_echelon


class TestDeterminants:
    def test_field_oracle(self):
        assert det_field([[1, 2], [3, 4]]) == -2
        assert det_field([[1, 2], [2, 4]]) == 0
        assert det_field([]) == 1

    def test_ring_matches_field(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        assert det_ring(m) == det_field(m)

    def test_ring_poly_oracle(self):
        t = tvar(1)
        one = tconst(1)
        assert det_ring([[one, t], [t, one]]) == 1 - t * t

    def test_unit_gaussian_matches_ring(self):
        a = tvar(1, "a").with_cap(4)
        b = tvar(2, "b").with_cap(4)
        one = tconst(1).with_cap(4)
        zero = tconst(0).with_cap(4)
        m = [
            [one + a, b, zero],
            [a * b, one - b, a],
            [zero, a + b, one + a * b],
        ]
        assert det_unit(m).terms == det_ring(m).terms

    def test_unit_gaussian_zero_column(self):
        z = Fraction(0)
        assert det_unit([[z, Fraction(1)], [z, Fraction(2)]]) == 0

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    @example([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    def test_unit_gaussian_takes_int_pivots(self, rows):
        # a nonzero int is a unit: int rows need no Fraction conversion
        assert det_unit(rows) == det_field(rows)
        assert det_unit([[1, 2], [3, 4]]) == -2

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_ring_equals_field_on_integers(self, rows):
        m = [[Fraction(x) for x in r] for r in rows]
        assert det_ring(m) == det_field(m)


# sympy's Bareiss determinant over Q[t1, t2, a1], an outside oracle the
# library itself never imports
_RING = sympy.QQ[sympy.symbols("t1 t2 a1")]


def _elem(x):
    """A ring element (Fraction or TimePolynomial) of Q[t1, t2, a1]."""
    if not isinstance(x, TimePolynomial):
        return _RING.from_sympy(sympy.Rational(x.numerator, x.denominator))
    return _RING.from_sympy(sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
            *(sympy.Symbol(f"{fam}{k}") ** m for (fam, k), m in mono))
        for mono, c in x.terms.items())))


def _bareiss(rows):
    n = len(rows)
    return DomainMatrix([[_elem(x) for x in r] for r in rows], (n, n),
                        _RING).det()


# sparse polynomial entries in t1, t2 and a parameter a1, rational
# coefficients
_MONOS = st.lists(
    st.tuples(st.sampled_from([("t", 1), ("t", 2), ("a", 1)]),
              st.integers(1, 2)),
    max_size=2, unique_by=lambda v: v[0]).map(tuple)
_ENTRIES = st.dictionaries(
    _MONOS, st.fractions(-3, 3, max_denominator=3).filter(bool),
    max_size=3).map(TimePolynomial)


class TestRingOracle:
    """det_ring on polynomial entries against sympy's fraction-free
    (Bareiss) elimination over the polynomial ring."""

    @settings(max_examples=30)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_det_ring_matches_bareiss(self, rows):
        assert _elem(det_ring(rows)) == _bareiss(rows)

    def test_five_by_five_with_zero_pivots(self):
        t, a = tvar(1), tvar(1, "a")
        zero = TimePolynomial()
        rows = [[zero, t, a, zero, t * a],
                [t, zero, zero, a * a, tconst(1)],
                [a, t * t, zero, tconst(2), zero],
                [zero, tconst(1), t + a, zero, t],
                [t * a, zero, tconst(3), a, zero]]
        want = _bareiss(rows)
        assert want and _elem(det_ring(rows)) == want


class TestKernel:
    def test_rref_pivots(self):
        m, piv = rref([[2, 4], [1, 2]])
        assert piv == [0]
        assert m[0] == [Fraction(1), Fraction(2)]

    def test_nullspace_oracle(self):
        basis = nullspace([[1, 2, 3]], 3)
        assert basis == [
            [Fraction(-2), Fraction(1), Fraction(0)],
            [Fraction(-3), Fraction(0), Fraction(1)],
        ]

    def test_nullspace_of_empty(self):
        assert nullspace([], 2) == [[1, 0], [0, 1]]

    def test_rank(self):
        assert len(rref([[1, 2], [2, 4], [0, 1]])[1]) == 2

    @given(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=4, max_size=4),
            min_size=2,
            max_size=3,
        )
    )
    def test_kernel_vectors_annihilate(self, rows):
        for v in nullspace(rows, 4):
            for r in rows:
                assert sum(Fraction(x) * y for x, y in zip(r, v)) == 0


def dense_rref(rows, ncols=None):
    """Dense Gauss-Jordan elimination, every pivot rewriting every row: the
    rref that the sparse row-at-a-time version replaced; kept as an oracle."""
    a = [list(map(Fraction, r)) for r in rows]
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        a[row] = [x / p for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == len(a):
            break
    return a, pivots


ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def degenerate_matrices(draw):
    """Random rational rows, with zero rows, duplicates and combinations of
    earlier rows inserted at random places."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("zero", "duplicate", "combination")))
        if kind == "zero" or not rows:
            new = [0] * ncols
        elif kind == "duplicate":
            new = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(ENTRIES), draw(ENTRIES)
            new = [s * x + t * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, ncols


class TestSparseRref:
    @settings(max_examples=200)
    @given(degenerate_matrices())
    def test_matches_dense_oracle(self, drawn):
        rows, _ = drawn
        assert rref(rows) == dense_rref(rows)


def _poly(a, b, c):
    return (tconst(a) + tvar(1) * b + tvar(2) * c).with_cap(2)


@st.composite
def tall_sparse_rows(draw):
    """Up to 24 sparse rows over the keys -3..3, keys in any order, with
    combinations of earlier rows put in: many more rows than their rank of
    at most 7.  The entries are all rational, or all polynomials a + b t1 +
    c t2 capped at weight 2, whose lead is no unit where a is 0."""
    if draw(st.booleans()):
        entry = st.fractions(-3, 3, max_denominator=4).filter(bool)
    else:
        small = st.integers(-2, 2)
        entry = st.builds(_poly, small, small, small).filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(-3, 3), entry,
                                         max_size=5), max_size=16))
    scalars = st.fractions(-2, 2, max_denominator=3)
    for _ in range(draw(st.integers(0, 8))):
        if not rows:
            break
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(scalars), draw(scalars)
        new = {k: y for k in {**b, **a}
               if (y := s * a.get(k, 0) + t * b.get(k, 0))}
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


def _ordered_echelon(echelon_route, rows):
    """(basis items in insertion order, kept), or the type and message of
    the refusal of a lead that is no unit."""
    try:
        basis, kept = echelon_route(rows)
    except ZgrassError as exc:
        return type(exc), str(exc)
    return list(basis.items()), kept


T1 = tvar(1).with_cap(2)
ONE2 = tconst(1).with_cap(2)


class TestEchelonOracle:
    @settings(max_examples=300, deadline=None)
    @given(tall_sparse_rows())
    # a lead that is no unit, at once and after a reduction
    @example([{0: T1}])
    @example([{1: ONE2, 0: ONE2}, {0: ONE2, 1: ONE2 + T1}])
    def test_matches_two_pass(self, rows):
        """The basis kept reduced as it grows is the two-pass elimination's
        row for row, in the same insertion order, with the same kept rows;
        a lead that is no unit is refused alike."""
        assert _ordered_echelon(echelon, rows) == _ordered_echelon(
            two_pass_echelon, rows)


def dense_nullspace(rows, ncols):
    """The kernel read off a dense rref, one vector per free column: the
    nullspace that reading echelon's basis directly replaced; kept as an
    oracle."""
    if not rows:
        return [
            [Fraction(1 if j == i else 0) for j in range(ncols)]
            for i in range(ncols)
        ]
    a, pivots = dense_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


class TestNullspaceOracle:
    @settings(max_examples=200)
    @given(degenerate_matrices())
    @example(([], 0))
    @example(([], 3))
    def test_matches_dense_oracle(self, drawn):
        rows, ncols = drawn
        assert nullspace(rows, ncols) == dense_nullspace(rows, ncols)

    @settings(max_examples=100)
    @given(degenerate_matrices(), st.integers(-5, 5))
    def test_kernel_on_any_keys(self, drawn, shift):
        # kernel reads its columns by key: columns keyed c + shift give the
        # dense kernel's vectors, sparse and re-keyed
        rows, ncols = drawn
        sparse = [{c + shift: Fraction(x) for c, x in enumerate(r) if x}
                  for r in rows]
        want = [{c + shift: x for c, x in enumerate(v) if x}
                for v in dense_nullspace(rows, ncols)]
        basis, _ = echelon(sparse)
        assert kernel(basis, range(shift, ncols + shift)) == want


def test_only_linalg_names_nullspace():
    """The kernel has one home: complements, stabilizers and orbit profiles
    read linalg.kernel or echelon, and no other zgrass module names the
    dense nullspace."""
    src = Path(zgrass.__file__).parent
    assert [info.name for info in pkgutil.iter_modules(zgrass.__path__)
            if "nullspace" in (src / f"{info.name}.py").read_text()] == [
                "linalg"]


def test_every_linalg_function_has_a_reader():
    """Every public function of zgrass.linalg is named by another zgrass
    module or wrapped by the benchmark's tracer (perfbench/tracer.py): an
    elimination that nothing reads leaves the library."""
    src = Path(zgrass.__file__).parent
    others = " ".join((src / f"{info.name}.py").read_text()
                      for info in pkgutil.iter_modules(zgrass.__path__)
                      if info.name != "linalg")
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import tracer
    finally:
        sys.path.remove(perfbench)
    traced = {path for module, path in tracer.TARGETS.values()
              if module == "linalg"}
    public = [name for name, f in inspect.getmembers(linalg,
                                                     inspect.isfunction)
              if f.__module__ == linalg.__name__ and not name.startswith("_")]
    assert public
    assert [name for name in public if name not in traced
            and not re.search(rf"\b{name}\b", others)] == []


def dividing_det(rows):
    """Gaussian elimination over Fraction dividing by each pivot: det_field
    before it became det_unit over Fraction; kept as an oracle."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    a = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        p = a[col][col]
        det *= p
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / p
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


@st.composite
def square_matrices(draw, entries):
    """n x n matrices, n = 0-7, with zero rows, duplicates and combinations
    of other rows put in at random places."""
    n = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, n))):
        kind = draw(st.sampled_from(("zero", "duplicate", "combination")))
        at = draw(st.integers(0, n - 1))
        if kind == "zero":
            rows[at] = [0] * n
        elif kind == "duplicate":
            rows[at] = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            rows[at] = [s * x + t * y for x, y in zip(a, b)]
    return rows


class TestOneElimination:
    @settings(max_examples=200)
    @given(st.one_of(square_matrices(ENTRIES),
                     square_matrices(st.integers(-5, 5))))
    def test_field_and_unit_match_dividing_oracle(self, rows):
        want = dividing_det(rows)
        assert det_field(rows) == want
        assert det_unit([[Fraction(x) for x in r] for r in rows]) == want

    @settings(max_examples=200)
    @given(st.data())
    def test_frame_minors_match_dividing_oracle(self, data):
        tail = data.draw(st.integers(0, 3))
        gens = data.draw(st.lists(
            st.dictionaries(st.integers(-tail, 3), ENTRIES, max_size=4),
            min_size=1, max_size=3))
        u = FramePoint.from_gens([LaurentSeries(g) for g in gens], tail,
                                 allow_dependent=True)
        assume(u.rows)
        # the pivot columns give a nonzero minor; move up to two of them
        # off the pivots, then sample the columns in any order
        n = data.draw(st.integers(1, len(u.rows) + 2))
        cols = [r.low for r in u.basis(n)]
        for k in data.draw(st.lists(st.integers(0, n - 1), max_size=2)):
            cols[k] = data.draw(st.integers(-tail - 3, 3).filter(
                lambda c: c not in cols))
        cols = data.draw(st.permutations(cols))
        rows = u.basis(n)
        mat = [[rows[i].coeffs.get(c, 0) for c in cols] for i in range(n)]
        assert u.minor(cols) == dividing_det(mat)
