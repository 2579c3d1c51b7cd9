"""Constraint family oracles and cross-route checks."""

import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zgrass import FramePoint, LaurentSeries, hierarchy
from zgrass.errors import UnsoundTruncation, ZgrassError
from zgrass.hierarchy import (
    CURVE,
    GR0,
    P0TRIPLE,
    constraint_suite,
    curve_constraint,
    extraction_operator,
    gr0_constraint,
    p0_triple_constraint,
    suite_verdict,
    suite_weight,
)
from zgrass.krichever import is_ring_point, span_closure
from zgrass.symfun import Partition, hall, partitions_upto, schur, tconst, tvar
from zgrass.tau import tau_function

DATA = Path(__file__).parent / "data"


def cusp_tau():
    # span{1} over tail_j = 1: tau is the single variable t1
    return tvar(1)


def pencil_tau():
    return tconst(1) + tvar(1)


def two_row_tau():
    return (tconst(1) + schur((2,)) * 2 + schur((1, 1)) * (-3)
            + schur((2, 2)) * 6)


def frame_tau(gens, tail):
    u = FramePoint.from_gens([LaurentSeries(g) for g in gens], tail, (-12, 12))
    return tau_function(u)


def three_row_tau():
    return frame_tau(
        [{-3: 1, 1: 2, 2: -1}, {-2: 1, 0: 3, 3: 1}, {-1: 1, 2: 1}], 3)


def needed_weight(family, *lams):
    """The entry's needed weight as the suite reports it; a tau capped below
    weight 0 keeps the suite from pairing anything."""
    ds = tuple(Partition(x) for x in lams)
    maxsize = max(d.weight for d in ds)
    entries = constraint_suite(tconst(1).with_cap(-1), maxsize)
    return next(e.needed for e in entries
                if e.family == family and e.diagrams == ds)


def suite_rows(entries):
    return [[e.family, [list(d.parts) for d in e.diagrams],
             None if e.value is None else str(e.value), e.needed, e.status]
            for e in entries]


class TestExtractionOperator:
    def test_empty_diagram_level_zero(self):
        assert extraction_operator((), 0) == tconst(1)

    def test_empty_diagram_level_one(self):
        assert extraction_operator((), 1) == tvar(1) * (-1)
        assert extraction_operator((), 1, negate_p=False) == tvar(1)

    def test_below_range_is_zero(self):
        assert not extraction_operator((1,), -2)
        assert not extraction_operator((), -1)

    def test_box_diagram_level_zero_cancels(self):
        # p0*s_(1) - p1*s_() telescopes to nothing
        assert not extraction_operator((1,), 0)
        assert not extraction_operator((1,), 0, negate_p=False)

    def test_homogeneous_weight(self):
        op = extraction_operator((2, 1), 2)
        assert op
        assert op.weight() == 5
        assert not op.component(4)

    def test_hook_level_one_telescopes(self):
        # prepending the level to the flipped diagram straightens to zero
        assert not extraction_operator((2, 1), 1)


class TestCuspFactors:
    """Single extraction values on the cusp tau, frozen by hand."""

    def test_column_factors(self):
        t = cusp_tau()
        assert hall(extraction_operator((), 1), t) == -1
        assert hall(extraction_operator((), 1, negate_p=False), t) == 1

    def test_box_level_zero(self):
        t = cusp_tau()
        assert hall(extraction_operator((1,), 0) or tconst(0), t) == 0

    def test_deeper_factors(self):
        t = cusp_tau()
        assert hall(extraction_operator((1, 1), -1), t) == 1
        assert hall(
            extraction_operator((2, 1), -2, negate_p=False), t) == -1


class TestGR0:
    def test_trivial_tau_vanishes(self):
        assert gr0_constraint((), (), tconst(1)) == 0

    def test_pencil_negative_control(self):
        assert gr0_constraint((), (), pencil_tau()) == -1

    def test_cusp_vanishes_everywhere(self):
        t = cusp_tau()
        for l1 in [(), (1,), (2,), (1, 1), (2, 1)]:
            for l2 in [(), (1,), (2,)]:
                assert gr0_constraint(l1, l2, t) == 0

    def test_quadratic_scaling(self):
        assert gr0_constraint((), (), pencil_tau() * 3) == -9

    def test_needed_weight(self):
        assert needed_weight(GR0, (), ()) == 1
        assert needed_weight(GR0, (2,), (1,)) == 4
        assert needed_weight(GR0, (1,), (3, 1)) == 6

    def test_capped_tau_within_cap(self):
        assert gr0_constraint((), (), pencil_tau().with_cap(1)) == -1

    def test_capped_tau_beyond_cap_raises(self):
        with pytest.raises(UnsoundTruncation):
            gr0_constraint((), (1,), pencil_tau().with_cap(1))

    def test_mixed_family_rejected(self):
        bad = tvar(1) * tvar(1, "a")
        with pytest.raises(ZgrassError):
            gr0_constraint((), (), bad)


class TestP0Triple:
    def test_pencil_negative_control(self):
        assert p0_triple_constraint((), (), (), pencil_tau()) == -1

    def test_cusp_vanishes(self):
        t = cusp_tau()
        for l1 in [(), (1,)]:
            for l2 in [(), (1,)]:
                for l3 in [(), (1,), (2,)]:
                    assert p0_triple_constraint(l1, l2, l3, t) == 0

    def test_cubic_scaling(self):
        assert p0_triple_constraint((), (), (), pencil_tau() * 2) == -8

    def test_needed_weight(self):
        assert needed_weight(P0TRIPLE, (), (), ()) == 2
        assert needed_weight(P0TRIPLE, (1,), (2,), ()) == 5

    def test_unsound_raises(self):
        with pytest.raises(UnsoundTruncation):
            p0_triple_constraint((), (), (), pencil_tau().with_cap(1))


class TestCurve:
    def test_trivial_tau_not_a_ring_point(self):
        assert curve_constraint((), tconst(1)) == 1

    def test_pencil_negative_control(self):
        assert curve_constraint((), pencil_tau()) == 1

    def test_cusp_vanishes(self):
        t = cusp_tau()
        for lam in [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]:
            assert curve_constraint(lam, t) == 0

    def test_linear_scaling(self):
        assert curve_constraint((), pencil_tau() * 5) == 5


class TestStatedLoci:
    """<3,4,5> is a sign-invariant ring point, yet GR0 and CURVE do not
    vanish on it, so the loci the module docstring names are claims this
    point contradicts.  Both routes agree, so the values are pinned as they
    stand until the families are settled."""

    @pytest.fixture(scope="class")
    def tau(self):
        u = span_closure([LaurentSeries({-g: 1}) for g in (3, 4, 5)],
                         (-24, 24))
        assert u.is_sigma_invariant() and is_ring_point(u)
        t = tau_function(u)
        assert t == schur((2,))
        return t

    @pytest.mark.parametrize("route", ["hall", "diff"])
    def test_gr0_and_curve_do_not_vanish(self, tau, route):
        assert gr0_constraint((1, 1), (1,), tau, route=route) == 1
        assert curve_constraint((1, 1), tau, route=route) == -1


class TestDualRoutes:
    """hall pairing vs applying the operator as scaled derivatives."""

    CASES = [
        ((), ()), ((1,), ()), ((1,), (1,)), ((2,), (1, 1)),
    ]

    def test_gr0_routes_agree(self):
        t = two_row_tau()
        for l1, l2 in self.CASES:
            a = gr0_constraint(l1, l2, t, route="hall")
            b = gr0_constraint(l1, l2, t, route="diff")
            assert a == b

    def test_p0_routes_agree(self):
        t = two_row_tau()
        for l1, l2 in self.CASES:
            a = p0_triple_constraint(l1, l2, (1,), t, route="hall")
            b = p0_triple_constraint(l1, l2, (1,), t, route="diff")
            assert a == b

    def test_curve_routes_agree(self):
        t = two_row_tau()
        for lam in [(), (1,), (2,), (2, 1), (2, 2)]:
            a = curve_constraint(lam, t, route="hall")
            b = curve_constraint(lam, t, route="diff")
            assert a == b

    def test_bad_route_rejected(self):
        with pytest.raises(ZgrassError):
            gr0_constraint((), (), tconst(1), route="newton")
        # each route is refused when the table is built, before any pairing:
        # the capped suite would pair CURVE(()), and the box diagram's
        # level-0 extraction is identically zero
        with pytest.raises(ZgrassError):
            constraint_suite(two_row_tau().with_cap(0), 2, route="bogus")
        with pytest.raises(ZgrassError):
            curve_constraint((1,), two_row_tau(), route="bogus")


class TestSuite:
    def test_cusp_all_zero(self):
        entries = constraint_suite(cusp_tau(), 2)
        assert entries
        assert all(e.status == "zero" for e in entries)
        verdict = suite_verdict(entries)
        assert all(v["verdict"] == "pass" for v in verdict.values())

    def test_pencil_fails_every_family(self):
        entries = constraint_suite(pencil_tau(), 1)
        verdict = suite_verdict(entries)
        assert verdict[GR0]["verdict"] == "fail"
        assert verdict[P0TRIPLE]["verdict"] == "fail"
        assert verdict[CURVE]["verdict"] == "fail"

    def test_canonical_order(self):
        entries = constraint_suite(cusp_tau(), 1)
        fams = [e.family for e in entries]
        assert fams == sorted(fams, key=(GR0, P0TRIPLE, CURVE).index)
        assert entries[0].family == GR0
        assert entries[0].diagrams == ((), ())

    def test_capped_suite_marks_unsound(self):
        entries = constraint_suite(pencil_tau().with_cap(1), 1)
        by = {}
        for e in entries:
            by.setdefault((e.family, e.status), []).append(e)
        # the empty-diagram pair is still in reach of the cap
        assert ((GR0, "nonzero") in by) and ((GR0, "unsound") in by)
        # every triple needs weight 2, beyond the cap
        assert all(e.status == "unsound" for e in entries
                   if e.family == P0TRIPLE)
        verdict = suite_verdict(entries)
        assert verdict[P0TRIPLE]["verdict"] == "skipped"
        assert verdict[GR0]["verdict"] == "fail"

    def test_unsound_entries_carry_no_value(self):
        entries = constraint_suite(pencil_tau().with_cap(1), 1)
        for e in entries:
            if e.status == "unsound":
                assert e.value is None
            else:
                assert isinstance(e.value, Fraction)

    def test_capped_suite_never_pairs_past_cap(self):
        # hall raises InsufficientPrecision on an extraction above the cap,
        # so any pairing a sound entry does not need would escape here
        t = three_row_tau()
        exact = constraint_suite(t, 3)
        for cap in range(7):
            capped = constraint_suite(t.with_cap(cap), 3)
            assert len(capped) == len(exact)
            for c, e in zip(capped, exact):
                assert (c.family, c.diagrams, c.needed) == (
                    e.family, e.diagrams, e.needed)
                if c.needed > cap:
                    assert c.status == "unsound" and c.value is None
                else:
                    assert c == e

    @pytest.mark.parametrize("maxsize", range(6))
    def test_suite_weight_is_largest_needed(self, maxsize):
        # needed reads the diagrams only: every entry of the exact tau 1 is
        # sound, and a tau capped below weight 0 pairs nothing
        exact = constraint_suite(tconst(1), maxsize)
        capped = constraint_suite(tconst(1).with_cap(-1), maxsize)
        assert all(e.status != "unsound" for e in exact)
        assert all(e.status == "unsound" for e in capped)
        assert [e.needed for e in capped] == [e.needed for e in exact]
        assert suite_weight(maxsize) == max(e.needed for e in exact)
        assert suite_weight(maxsize) == 3 * maxsize + 2

    def test_suite_weight_is_tight(self):
        """Tau capped at suite_weight leaves the suite unchanged; one weight
        less marks entries unsound."""
        t = three_row_tau()
        for m in (1, 2):
            exact = constraint_suite(t, m)
            assert constraint_suite(t.with_cap(suite_weight(m)), m) == exact
            below = constraint_suite(t.with_cap(suite_weight(m) - 1), m)
            assert any(e.status == "unsound" for e in below)

    def test_each_extraction_paired_once(self, monkeypatch):
        ops, pairs = [], []

        def counting_extraction(*args):
            ops.append(args)
            return extraction_operator(*args)

        def counting_hall(op, tau):
            pairs.append((op, tau))
            return hall(op, tau)

        monkeypatch.setattr(hierarchy, "extraction_operator",
                            counting_extraction)
        monkeypatch.setattr(hierarchy, "hall", counting_hall)
        constraint_suite(three_row_tau(), 4)
        assert len(ops) == len(set(ops)) == 244
        assert len(pairs) == len({(id(a), id(b)) for a, b in pairs}) == 208

    @pytest.mark.parametrize("cap, ops, pairs", [(5, 84, 61), (2, 9, 8)])
    def test_unsound_entries_read_no_rows(self, monkeypatch, cap, ops,
                                          pairs):
        # a capped tau pairs only the rows some sound entry needs
        made, paired = [], []

        def counting_extraction(*args):
            made.append(args)
            return extraction_operator(*args)

        def counting_hall(op, tau):
            paired.append(op)
            return hall(op, tau)

        monkeypatch.setattr(hierarchy, "extraction_operator",
                            counting_extraction)
        monkeypatch.setattr(hierarchy, "hall", counting_hall)
        constraint_suite(three_row_tau().with_cap(cap), 4)
        assert (len(made), len(paired)) == (ops, pairs)

    @pytest.mark.parametrize("cap", [None, 5, 2])
    def test_one_fraction_per_nonzero_entry(self, monkeypatch, cap):
        # the sweep adds integers: each nonzero value is the one Fraction it
        # builds for that entry, and every zero value is the shared _ZERO
        built = []

        def counting_fraction(*args):
            built.append(Fraction(*args))
            return built[-1]

        tau = three_row_tau() if cap is None else three_row_tau().with_cap(cap)
        monkeypatch.setattr(hierarchy, "Fraction", counting_fraction)
        entries = constraint_suite(tau, 4)
        nonzero = [e.value for e in entries if e.status == "nonzero"]
        assert nonzero and len(built) <= len(nonzero)
        assert {id(v) for v in nonzero} == {id(f) for f in built}
        assert all(e.value is hierarchy._ZERO for e in entries
                   if e.status == "zero")

    @pytest.mark.parametrize("tau", [
        three_row_tau(), frame_tau([{-1: 1, 0: 2}], 1)],
        ids=["three_row", "one_row"])
    def test_pairs_only_at_tau_weights(self, tau, monkeypatch):
        # an extraction is homogeneous, so pairing it at a weight where tau
        # has no terms can only give zero; the standalone constraints read
        # tau through the same rows
        weights = {sum(k * n for (_, k), n in m) for m in tau.terms}
        paired = []

        def recording_hall(op, t):
            paired.append(op.weight())
            return hall(op, t)

        monkeypatch.setattr(hierarchy, "hall", recording_hall)
        constraint_suite(tau, 4)
        assert paired and set(paired) <= weights
        for call in (lambda: gr0_constraint((2, 1), (1,), tau),
                     lambda: p0_triple_constraint((1,), (2,), (1, 1), tau),
                     lambda: curve_constraint((2, 1), tau)):
            paired.clear()
            call()
            assert paired and set(paired) <= weights


class TestSuiteCharacterization:
    """Whole suites pinned entry by entry.

    The rows of suite_three_row.json were recorded from constraint_suite on
    the three-row point, exact and capped at weight 5, in the suite_rows
    format; a change to any value, bound or status shows up as a row diff.
    """

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads((DATA / "suite_three_row.json").read_text())

    def test_exact_three_row_point(self, pinned):
        rows = suite_rows(constraint_suite(three_row_tau(), 3))
        assert rows == pinned["exact"]

    def test_capped_three_row_point(self, pinned):
        rows = suite_rows(constraint_suite(three_row_tau().with_cap(5), 3))
        assert rows == pinned["cap5"]
        assert len(rows) == 399
        assert sum(r[4] == "unsound" for r in rows) == 321

    def test_routes_agree_on_whole_suite(self):
        for tau, maxsize in (
                (frame_tau([{-2: 1, 0: 3, 3: 1}, {-1: 1, 2: 1}], 2), 3),
                (three_row_tau(), 4)):
            hall_rows = constraint_suite(tau, maxsize)
            assert any(e.status == "nonzero" for e in hall_rows)
            assert constraint_suite(tau, maxsize, route="diff") == hall_rows


def dense_suite(tau, maxsize):
    """The dense-level evaluator that the sparse rows replaced, kept as the
    oracle of constraint_suite: every slot walks its whole level range,
    extracts at every level whether or not tau has that weight, and each
    extraction is Hall-paired on its first use, with Fraction sums.  It
    shares symfun.hall with the suite, so the "diff" route (apply_tilde,
    test_routes_agree_*) stays the independent oracle of the values."""
    shapes = hierarchy._SHAPES
    values, tails = {}, {}

    def extract(parts, e, negate_p):
        key = (parts, e, negate_p)
        if key not in values:
            op = extraction_operator(parts, e, negate_p)
            values[key] = hall(op, tau) if op else Fraction(0)
        return values[key]

    def evaluate(family, ds, k=0, rest=None):
        negate = shapes[family][1]
        if rest is None:
            rest = shapes[family][0]
        d = ds[k]
        if k == len(ds) - 1:
            return extract(d.parts, rest, negate[k])
        key = (family, k, rest) + tuple(x.parts for x in ds[k:])
        if k and key in tails:
            return tails[key]
        lo, step = -d.top, 1
        if k == 0:
            lo += lo % 2
            step = 2
        out = Fraction(0)
        for e in range(lo, rest + sum(x.top for x in ds[k + 1:]) + 1, step):
            x = extract(d.parts, e, negate[k])
            if x:
                out += x * evaluate(family, ds, k + 1, rest - e)
        if k:
            tails[key] = out
        return out

    lams = partitions_upto(maxsize)
    out = []
    for family in (GR0, P0TRIPLE, CURVE):
        for ds in product(lams, repeat=len(shapes[family][1])):
            tops = sum(d.top for d in ds)
            needed = max(d.weight + shapes[family][0] + tops - d.top
                         for d in ds)
            v = (None if tau.maxweight is not None and needed > tau.maxweight
                 else evaluate(family, ds))
            status = ("unsound" if v is None
                      else "zero" if v == 0 else "nonzero")
            out.append(hierarchy.SuiteEntry(family, ds, v, needed, status))
    return out


@st.composite
def small_frames(draw, max_rows=2):
    """1 to max_rows rows with distinct pivots over tail 1-3, every
    exponent at most 3."""
    tail = draw(st.integers(1, 3))
    pivots = draw(st.lists(st.integers(-tail, 0), min_size=1,
                           max_size=min(max_rows, tail + 1), unique=True))
    gens = []
    for lo in pivots:
        coeffs = {e: draw(st.integers(-3, 3)) for e in range(lo + 1, 4)
                  if draw(st.booleans())}
        coeffs[lo] = draw(st.integers(1, 3))
        gens.append(LaurentSeries(coeffs))
    return FramePoint.from_gens(gens, tail, (-12, 12))


@settings(max_examples=12, deadline=5000)
@given(small_frames())
def test_routes_agree_on_random_frames(u):
    t = tau_function(u)
    assert constraint_suite(t, 2, route="diff") == constraint_suite(t, 2)


STANDALONE = {GR0: gr0_constraint, P0TRIPLE: p0_triple_constraint,
              CURVE: curve_constraint}


@settings(max_examples=30, deadline=None)
@given(small_frames(max_rows=3), st.one_of(st.none(), st.integers(-1, 11)))
def test_suite_entries_match_standalone(u, cap):
    """Each suite entry is its standalone constraint: the value where the
    entry is sound, UnsoundTruncation where it is not."""
    t = tau_function(u)
    if cap is not None:
        t = t.with_cap(cap)
    for e in constraint_suite(t, 2):
        fn = STANDALONE[e.family]
        if e.status == "unsound":
            with pytest.raises(UnsoundTruncation):
                fn(*e.diagrams, t)
        else:
            assert fn(*e.diagrams, t) == e.value


@settings(max_examples=30, deadline=None)
@given(small_frames(max_rows=3), st.integers(0, 3),
       st.one_of(st.none(), st.integers(-1, 11)))
def test_suite_matches_dense_oracle(u, maxsize, cap):
    t = tau_function(u)
    if cap is not None:
        t = t.with_cap(cap)
    assert constraint_suite(t, maxsize) == dense_suite(t, maxsize)
