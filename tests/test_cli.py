"""End-to-end checks of the command line tool and its JSON codecs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zgrass
from frame_oracles import echelon_calls, flowed_tau
from zgrass import __version__, cli, hierarchy, krichever, symfun, tau
from zgrass.cli import main
from zgrass.errors import ParseError
from zgrass.grassmann import FramePoint
from zgrass.io import (
    curve_from_json,
    family_from_json,
    frac_str,
    matrix_from_json,
    mono_str,
    parse_frac,
    point_from_json,
    series_from_json,
    to_json,
)
from zgrass.linalg import det_field
from zgrass.pfaffian import pfaffian, section_square_check
from zgrass.series import LaurentSeries
from zgrass.symfun import Partition, TimePolynomial, partitions_upto, tvar

CUSP = {"kind": "point", "gens": [{"0": "1"}], "tail": 1, "window": [-8, 8]}
PENCIL = {"kind": "point", "gens": [{"-1": "1", "0": "1"}], "tail": 1,
          "window": [-8, 8]}
CURVE = {"kind": "curve", "ring_gens": [{"-2": "1"}, {"-3": "1"}],
         "label": "cusp semigroup", "window": [-8, 8]}
ALT = {"kind": "matrix", "entries": [
    ["0", "2", "-1", "3"], ["-2", "0", "4", "1"],
    ["1", "-4", "0", "5"], ["-3", "-1", "-5", "0"]]}
FAMILY = {"kind": "family", "flows": {"1": "a", "3": "a"}, "floor": -10}
THREE_ROW = {"kind": "point", "gens": [
    {"-3": "1", "1": "2", "2": "-1"}, {"-2": "1", "0": "3", "3": "1"},
    {"-1": "1", "2": "1"}], "tail": 3, "window": [-12, 12]}
CURVE_2_5 = {"kind": "curve", "ring_gens": [{"-2": "1"}, {"-5": "1"}],
             "label": "<2,5>", "window": [-24, 24]}
TWO_FAMILY = {"kind": "family", "flows": {"1": "a", "3": "b"}, "floor": -10}
# odd flows of z^3 k[z^-3, z^-5], an isotropic point of parity 0 whose tau
# vanishes at the origin
PARITY0_FAMILY = dict(TWO_FAMILY, floor=-12, base={
    "gens": [{"3": "1"}, {"0": "1"}, {"-2": "1"}, {"-3": "1"}], "tail": 4})
# the alternating matrix of test_pfaffian's test_six_by_six_square
SIX_BY_SIX = {"kind": "matrix", "entries": [
    ["0", "1", "-2", "3", "1", "0"], ["-1", "0", "2", "1", "-1", "4"],
    ["2", "-2", "0", "5", "2", "-3"], ["-3", "-1", "-5", "0", "1", "2"],
    ["-1", "1", "-2", "-1", "0", "-1"], ["0", "-4", "3", "-2", "1", "0"]]}
GOLDEN = Path(__file__).parent / "data" / "golden"


def run(tmp_path, obj, *argv, capsys=None):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code = main([argv[0], str(path), *argv[1:]])
    out = capsys.readouterr().out
    return code, json.loads(out)


def names(report, status):
    return [c["name"] for c in report["checks"] if c["status"] == status]


class TestFractions:
    def test_parse_forms(self):
        assert parse_frac("2/3") * 3 == 2
        assert parse_frac("-5") == -5
        assert parse_frac(7) == 7

    def test_rejects_floats_bools_and_poles(self):
        for bad in (1.5, True, "1/0", None, "x", "1e1000000", "2E-3"):
            with pytest.raises(ParseError):
                parse_frac(bad)

    def test_decimal_strings_are_exact(self):
        assert parse_frac("0.5") * 2 == 1

    def test_always_keeps_denominator(self):
        assert frac_str(parse_frac("4/2")) == "2/1"

    def test_series_roundtrip(self):
        f = series_from_json({"-2": "1", "0": "3/2"})
        assert f.coeff(-2) == 1 and f.coeff(0) * 2 == 3

    def test_monomial_labels(self):
        m = (tvar(1) * tvar(1) * tvar(3, "s")).terms
        assert mono_str(next(iter(m))) == "s3 t1^2"


class TestCheck:
    @pytest.mark.parametrize("obj, passes", [
        (dict(PENCIL, gens=[{"-1": "1", "0": "2"}], tail=9), [1]),
        (dict(THREE_ROW, tail=4096, window=[-64, 64]), [3]),
        (dict(PENCIL, gens=[{"0": "1", "4096": "1"}], tail=4096,
              window=[-64, 64]), [1]),
    ], ids=["one-row-tail9", "three-row-tail4096", "one-row-top4096"])
    def test_exact_complement_reads_no_window(self, tmp_path, capsys,
                                              monkeypatch, obj, passes):
        """The complement's complement reaches below the file window; an
        exact point's complement reads no window.  The whole check makes one
        echelon pass, over the point's own generators: neither complement
        eliminates."""
        calls = echelon_calls(monkeypatch)
        code, rep = run(tmp_path, obj, "check", capsys=capsys)
        assert code == 0 and names(rep, "pass") == ["dual-charge",
                                                    "biduality"]
        assert calls == passes

    def test_cusp_point(self, tmp_path, capsys):
        code, rep = run(tmp_path, CUSP, "check", capsys=capsys)
        assert code == 0 and rep["ok"]
        assert rep["report"]["isotropic"] and rep["report"]["parity"] == 1
        assert names(rep, "pass") == ["dual-charge", "biduality"]

    def test_pencil_not_invariant(self, tmp_path, capsys):
        code, rep = run(tmp_path, PENCIL, "check", capsys=capsys)
        assert code == 0
        assert rep["report"]["sigma_invariant"] is False
        assert rep["report"]["parity"] == 0

    def test_curve_closure(self, tmp_path, capsys):
        code, rep = run(tmp_path, CURVE, "check", capsys=capsys)
        assert code == 0
        assert rep["report"]["ring"] and rep["report"]["prym"]["member"]
        assert "ring-closed" in names(rep, "pass")

    def test_wrong_kind_is_an_error(self, tmp_path, capsys):
        code, rep = run(tmp_path, CURVE, "tau", capsys=capsys)
        assert code == 2 and "expects point" in rep["error"]

    def test_bad_rational_is_an_error(self, tmp_path, capsys):
        bad = {"kind": "point", "gens": [{"0": "1/0"}], "tail": 1}
        code, rep = run(tmp_path, bad, "check", capsys=capsys)
        assert code == 2 and "ParseError" in rep["error"]

    def test_mangled_json_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "mangled.json"
        path.write_text("not json")
        assert main(["check", str(path)]) == 2
        assert "error" in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("data", [
        b"\xff\xfe{}",
        b'{"kind": "point", "tail": ' + b"1" * 5000 + b"}",
        b"[" * 100000 + b"]" * 100000,
    ], ids=["not-utf8", "integer-past-digit-limit", "nested-too-deep"])
    def test_unreadable_json_is_a_parse_error(self, tmp_path, capsys, data):
        path = tmp_path / "input.json"
        path.write_bytes(data)
        assert main(["check", str(path)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error.startswith(f"ParseError: {path}: invalid JSON (")

    def test_noncanonical_keys_are_errors(self, tmp_path, capsys):
        # each would collapse onto another spelling of the same exponent
        for key in ("00", "+1", "1_0", " 1", "-0", "01"):
            bad = {"kind": "point", "gens": [{"0": "1", key: "5"}], "tail": 1}
            code, rep = run(tmp_path, bad, "check", capsys=capsys)
            assert code == 2
            assert rep["error"] == (
                f"ParseError: exponent must be an integer, got {key!r}")
        bad = dict(TWO_FAMILY, flows={"1": "a", "01": "b"})
        code, rep = run(tmp_path, bad, "family-square", capsys=capsys)
        assert code == 2 and "flow exponent" in rep["error"]

    def test_duplicate_keys_are_errors(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        for text in ('{"kind": "point", "gens": [{"0": "1", "0": "5"}], '
                     '"tail": 1}',
                     '{"kind": "family", "flows": {"1": "a", "1": "b"}}',
                     '{"kind": "point", "kind": "matrix", "entries": []}'):
            path.write_text(text)
            assert main(["check", str(path)]) == 2
            assert json.loads(capsys.readouterr().out)["error"].startswith(
                "ParseError: duplicate key")


class TestReports:
    def test_tau_cusp(self, tmp_path, capsys):
        code, rep = run(tmp_path, CUSP, "tau", "--weight", "4", capsys=capsys)
        assert code == 0
        assert rep["report"]["tau"]["terms"] == {"t1": "1/1"}
        assert "flow-consistency" in names(rep, "pass")

    def test_tau_ring_point_of_negative_charge(self, tmp_path, capsys):
        ring = {"kind": "point", "gens": [{"0": "1"}, {"-3": "1"}, {"-4": "1"}],
                "tail": 5, "window": [-24, 24]}
        code, rep = run(tmp_path, ring, "tau", capsys=capsys)
        assert code == 0
        assert rep["report"]["charge"] == -2
        assert "flow-consistency" in names(rep, "pass")

    def test_deterministic_output(self, tmp_path, capsys):
        _, first = run(tmp_path, CUSP, "tau", capsys=capsys)
        _, second = run(tmp_path, CUSP, "tau", capsys=capsys)
        assert first == second

    def test_baker_blocks(self, tmp_path, capsys):
        code, rep = run(tmp_path, CUSP, "baker", "--weight", "3",
                        capsys=capsys)
        assert code == 0 and len(rep["report"]["blocks"]) == 3
        assert "duality-residues" in names(rep, "pass")

    def test_bilinear_tracks_invariance(self, tmp_path, capsys):
        code, rep = run(tmp_path, PENCIL, "bilinear", "--weight", "4",
                        capsys=capsys)
        assert code == 0
        assert rep["report"]["sigma_invariant"] is False
        assert rep["report"]["second_residual"]["terms"]
        assert "sign-residues-match-invariance" in names(rep, "pass")

    def test_out_file(self, tmp_path, capsys):
        src = tmp_path / "point.json"
        src.write_text(json.dumps(CUSP))
        dst = tmp_path / "report.json"
        code = main(["check", str(src), "--out", str(dst)])
        assert code == 0 and capsys.readouterr().out == ""
        assert json.loads(dst.read_text())["ok"]

    @pytest.mark.parametrize("input_exists", [True, False],
                             ids=["report", "error-report"])
    def test_unwritable_out_file(self, tmp_path, capsys, input_exists):
        src = tmp_path / "point.json"
        if input_exists:
            src.write_text(json.dumps(CUSP))
        dst = tmp_path / "missing" / "report.json"
        assert main(["check", str(src), "--out", str(dst)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(
            f"zgrass check: error: cannot write --out {dst}: ")


class TestHierarchyCommand:
    def test_cusp_passes(self, tmp_path, capsys):
        code, rep = run(tmp_path, CUSP, "hierarchy", "--maxsize", "2",
                        capsys=capsys)
        assert code == 0
        verdicts = rep["report"]["verdicts"]
        assert {v["verdict"] for v in verdicts.values()} == {"pass"}

    def test_pencil_fails(self, tmp_path, capsys):
        code, rep = run(tmp_path, PENCIL, "hierarchy", "--maxsize", "2",
                        capsys=capsys)
        assert code == 1 and not rep["ok"]
        assert rep["report"]["verdicts"]["GR0"]["verdict"] == "fail"
        assert rep["report"]["verdicts"]["GR0"]["failures"]

    def test_maxsize_range(self, tmp_path, capsys):
        for maxsize in ("-1", "7"):
            code, rep = run(tmp_path, CUSP, "hierarchy", "--maxsize", maxsize,
                            capsys=capsys)
            assert code == 2
            assert rep["error"] == (
                f"ParseError: --maxsize must be between 0 and 6, got {maxsize}")
        code, rep = run(tmp_path, CUSP, "hierarchy", "--maxsize", "0",
                        capsys=capsys)
        assert code == 0 and len(rep["report"]["suite"]) == 3

    def test_pencil_report_pinned(self, tmp_path, capsys):
        code, rep = run(tmp_path, PENCIL, "hierarchy", "--maxsize", "1",
                        capsys=capsys)
        assert code == 1

        def entry(family, diagrams, needed, value):
            return {"diagrams": diagrams, "family": family, "needed": needed,
                    "status": "zero" if value == "0/1" else "nonzero",
                    "value": value}

        def verdict(checked, failure):
            return {"checked": checked, "failures": [failure], "skipped": 0,
                    "verdict": "fail"}

        def check(family, checked):
            return {"detail": f"{checked} constraints checked, 1 shown of "
                              "any failures",
                    "name": f"suite-{family}", "status": "fail"}

        assert rep == {
            "checks": [check("GR0", 4), check("P0TRIPLE", 8),
                       check("CURVE", 2)],
            "command": "hierarchy",
            "config": {"maxsize": 1, "strict": False},
            "ok": False,
            "report": {
                "suite": [
                    entry("GR0", [[], []], 1, "-1/1"),
                    entry("GR0", [[], [1]], 2, "0/1"),
                    entry("GR0", [[1], []], 2, "0/1"),
                    entry("GR0", [[1], [1]], 3, "0/1"),
                    entry("P0TRIPLE", [[], [], []], 2, "-1/1"),
                    entry("P0TRIPLE", [[], [], [1]], 3, "0/1"),
                    entry("P0TRIPLE", [[], [1], []], 3, "0/1"),
                    entry("P0TRIPLE", [[], [1], [1]], 4, "0/1"),
                    entry("P0TRIPLE", [[1], [], []], 3, "0/1"),
                    entry("P0TRIPLE", [[1], [], [1]], 4, "0/1"),
                    entry("P0TRIPLE", [[1], [1], []], 4, "0/1"),
                    entry("P0TRIPLE", [[1], [1], [1]], 5, "0/1"),
                    entry("CURVE", [[]], 0, "1/1"),
                    entry("CURVE", [[1]], 1, "0/1"),
                ],
                "verdicts": {
                    "CURVE": verdict(2, [[[]], "1/1"]),
                    "GR0": verdict(4, [[[], []], "-1/1"]),
                    "P0TRIPLE": verdict(8, [[[], [], []], "-1/1"]),
                },
            },
            "tool": "zgrass",
            "version": __version__,
        }


class TestOptions:
    """Every command takes only the options it reads, each in a range that
    bounds its cost."""

    INPUTS = {"hierarchy": CUSP, "pfaffian": SIX_BY_SIX, "tau": THREE_ROW,
              "baker": THREE_ROW, "bilinear": THREE_ROW,
              "family-square": TWO_FAMILY}

    @pytest.mark.parametrize("cmd, option", [
        ("hierarchy", "--weight"), ("pfaffian", "--window"),
        ("family-square", "--window"), ("tau", "--window"),
        ("baker", "--window"), ("bilinear", "--window"),
        ("hierarchy", "--window")])
    def test_ignored_option_is_refused(self, tmp_path, capsys, cmd, option):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(self.INPUTS[cmd]))
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(path), option, "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["tau", "baker", "bilinear",
                                     "family-square"])
    def test_weight_range(self, tmp_path, capsys, cmd):
        obj = self.INPUTS[cmd]
        for weight in ("-1", "25", "32"):
            code, rep = run(tmp_path, obj, cmd, "--weight", weight,
                            capsys=capsys)
            assert code == 2
            assert rep["error"] == (
                f"ParseError: --weight must be between 0 and 24, got {weight}")
        code, rep = run(tmp_path, obj, cmd, "--weight", "2", capsys=capsys)
        assert code == 0 and rep["config"]["weight"] == 2

    def test_nmax_range(self, tmp_path, capsys):
        for nmax in ("0", "65", "96"):
            code, rep = run(tmp_path, CURVE, "orbit", "--nmax", nmax,
                            capsys=capsys)
            assert code == 2
            assert rep["error"] == (
                f"ParseError: --nmax must be between 1 and 64, got {nmax}")
        code, rep = run(tmp_path, CURVE, "orbit", "--nmax", "1",
                        capsys=capsys)
        assert code == 0 and rep["report"]["dims"]

    def test_window_range(self, tmp_path, capsys):
        for radius in ("0", "-3", "65"):
            code, rep = run(tmp_path, CUSP, "check", "--window", radius,
                            capsys=capsys)
            assert code == 2
            assert rep["error"] == (
                f"ParseError: --window must be between 1 and 64, got {radius}")
        for win in ([-65, 8], [-8, 65], [8, 8]):
            code, rep = run(tmp_path, dict(CUSP, window=win), "tau",
                            capsys=capsys)
            assert code == 2
            assert rep["error"] == (
                "ParseError: window must be [lo, hi] with -64 <= lo < hi "
                f"<= 64, got {win!r}")
        code, rep = run(tmp_path, dict(CUSP, window=[-64, 64]), "check",
                        "--window", "64", capsys=capsys)
        assert code == 0 and rep["config"]["window"] == 64

    def test_floor_range(self, tmp_path, capsys):
        for floor in (0, 1, -49, -96):
            code, rep = run(tmp_path, dict(TWO_FAMILY, floor=floor),
                            "family-square", capsys=capsys)
            assert code == 2
            assert rep["error"] == ("ParseError: 'floor' must be an integer "
                                    f"between -48 and -1, got {floor}")
        code, rep = run(tmp_path, dict(TWO_FAMILY, floor=-2),
                        "family-square", "--weight", "2", capsys=capsys)
        assert code == 0 and rep["report"]["floor"] == -2

    def test_tail_range(self, tmp_path, capsys):
        one_row = {"kind": "point", "gens": [{"-1": "1", "0": "2"}],
                   "window": [-8, 8]}
        for tail in (-1, 4097, 100000000):
            # a family's base is read as a point, with the same bound
            base = {"gens": [{"-1": "1", "0": "2"}], "tail": tail}
            for obj, cmd in ((dict(one_row, tail=tail), "check"),
                             (dict(TWO_FAMILY, base=base), "family-square")):
                code, rep = run(tmp_path, obj, cmd, capsys=capsys)
                assert code == 2
                assert rep["error"] == (
                    "ParseError: 'tail' must be an integer between 0 and "
                    f"4096, got {tail}")
        # the complement is one sparse kernel, linear in the tail
        code, rep = run(tmp_path, dict(one_row, tail=4096), "bilinear",
                        capsys=capsys)
        assert code == 0

    def test_exponent_range(self, tmp_path, capsys):
        """Series exponents share the tail's range, in every series a file
        holds; 4096 and -4096 are read."""
        for e in (4097, -4097, 5000):
            bad = [{"0": "1", str(e): "1"}]
            for obj, cmd in ((dict(CUSP, gens=bad), "tau"),
                             (dict(CURVE, ring_gens=[{"-2": "1"}, *bad]),
                              "check"),
                             (dict(TWO_FAMILY, base={"gens": bad, "tail": 1}),
                              "family-square")):
                code, rep = run(tmp_path, obj, cmd, capsys=capsys)
                assert code == 2
                assert rep["error"] == ("ParseError: exponent must be between "
                                        f"-4096 and 4096, got {e}")
        obj = dict(CUSP, gens=[{"4096": "1"}, {"-4096": "1"}], tail=4096)
        code, rep = run(tmp_path, obj, "tau", "--weight", "2", capsys=capsys)
        assert code == 0

    def test_matrix_size_range(self, tmp_path, capsys):
        def blocks(n):
            """n x n alternating matrix of 2 x 2 blocks [[0, 1], [-1, 0]]."""
            def entry(i, j):
                if i % 2 == 0 and j == i + 1:
                    return "1"
                return "-1" if i % 2 and j == i - 1 else "0"

            return {"kind": "matrix", "entries": [
                [entry(i, j) for j in range(n)] for i in range(n)]}

        for n in (65, 66):
            code, rep = run(tmp_path, blocks(n), "pfaffian", capsys=capsys)
            assert code == 2
            assert rep["error"] == (
                f"ParseError: a matrix must have 0 to 64 rows, got {n}")
        code, rep = run(tmp_path, blocks(64), "pfaffian", capsys=capsys)
        assert code == 0 and rep["report"]["pfaffian"] == "1/1"


class TestOrbitCommand:
    def test_curve_input(self, tmp_path, capsys):
        code, rep = run(tmp_path, CURVE, "orbit", "--nmax", "8",
                        capsys=capsys)
        assert code == 0
        assert rep["report"]["verdict"] == "stable"
        assert rep["report"]["value"] == 1

    def test_inconclusive_skips_then_strict_fails(self, tmp_path, capsys):
        point = {"kind": "point", "gens": [{"0": "1"}, {"-2": "1"}],
                 "tail": 3, "window": [-8, 8]}
        code, rep = run(tmp_path, point, "orbit", "--nmax", "2",
                        capsys=capsys)
        assert code == 0 and names(rep, "skipped") == ["profile-stabilized"]
        code, _ = run(tmp_path, point, "orbit", "--nmax", "2", "--strict",
                      capsys=capsys)
        assert code == 1

    def test_uncertified_curve_names_the_window(self, tmp_path, capsys):
        # check skips closure-certified on this span; orbit refuses it
        curve = {"kind": "curve", "window": [-6, 6],
                 "ring_gens": [{"-2": "1"}, {"-3": "1", "1": "1"}]}
        reason = "window-approximate tail; widen the window"
        code, rep = run(tmp_path, curve, "check", capsys=capsys)
        assert code == 0 and names(rep, "skipped") == ["closure-certified"]
        assert [c["detail"] for c in rep["checks"]] == [reason]
        # the span is refused, so no frame field is reported
        assert rep["report"] == {"kind": "curve", "label": "",
                                 "window": [-6, 6]}
        code, rep = run(tmp_path, curve, "orbit", capsys=capsys)
        assert code == 2
        assert rep["error"] == f"WindowTooSmall: {reason}"

    def test_nmax_below_one_is_an_error(self, tmp_path, capsys):
        for nmax in ("0", "-3"):
            code, rep = run(tmp_path, CURVE, "orbit", "--nmax", nmax,
                            capsys=capsys)
            assert code == 2
            assert rep["error"].startswith("ParseError")

    def test_one_stabilizer_per_request(self, tmp_path, capsys, monkeypatch):
        """The report's stabilizer is the one the profile solved: one
        level-12 solve, (3 + 12)(2 * 12 + 1) reductions."""
        point = {"kind": "point", "tail": 3, "window": [-12, 12],
                 "gens": [{"-3": "1", "1": "2", "2": "-1"},
                          {"-2": "1", "0": "3", "3": "1"},
                          {"-1": "1", "2": "1"}]}
        calls = {"reduce": 0, "stabilizer": 0}
        reduce, stab = FramePoint.reduce, krichever.stabilizer

        def counting_reduce(self, f):
            calls["reduce"] += 1
            return reduce(self, f)

        def counting_stabilizer(*args):
            calls["stabilizer"] += 1
            return stab(*args)

        monkeypatch.setattr(FramePoint, "reduce", counting_reduce)
        for name, mod in list(sys.modules.items()):
            if (name.startswith("zgrass")
                    and getattr(mod, "stabilizer", None) is stab):
                monkeypatch.setattr(mod, "stabilizer", counting_stabilizer)
        code, _ = run(tmp_path, point, "orbit", capsys=capsys)
        assert code == 0
        assert calls == {"reduce": 375, "stabilizer": 1}


class TestPfaffianCommand:
    def test_alternating(self, tmp_path, capsys):
        code, rep = run(tmp_path, ALT, "pfaffian", capsys=capsys)
        assert code == 0
        assert rep["report"]["pfaffian"] == "23/1"
        assert rep["report"]["determinant"] == "529/1"

    def test_not_alternating_is_an_error(self, tmp_path, capsys):
        bad = {"kind": "matrix", "entries": [["1", "2"], ["-2", "0"]]}
        code, rep = run(tmp_path, bad, "pfaffian", capsys=capsys)
        assert code == 2 and "NotAlternating" in rep["error"]


class TestFamilySquare:
    def test_base_orbit_is_trivial_square(self, tmp_path, capsys):
        code, rep = run(tmp_path, FAMILY, "family-square", "--weight", "6",
                        capsys=capsys)
        assert code == 0
        assert rep["report"]["section"] == "1/1"
        assert set(names(rep, "pass")) == {
            "prym-flow", "square-section", "square-root-roundtrip"}

    def test_moved_base_has_series_square(self, tmp_path, capsys):
        fam = dict(FAMILY, base={"gens": [{"-1": "1", "0": "1"}], "tail": 1})
        code, rep = run(tmp_path, fam, "family-square", "--weight", "6",
                        capsys=capsys)
        assert code == 0
        assert rep["report"]["section"]["terms"] == {"1": "1/1", "a1": "1/1"}
        assert "square-root-roundtrip" in names(rep, "pass")
        assert "square-section" in names(rep, "skipped")

    def test_odd_parity_base_is_diagnostic(self, tmp_path, capsys):
        fam = dict(FAMILY, base={"gens": [{"0": "1"}], "tail": 1})
        code, rep = run(tmp_path, fam, "family-square", "--weight", "4",
                        capsys=capsys)
        assert code == 0
        assert "odd parity" in rep["report"]["diagnostic"]
        assert "square-root-roundtrip" in names(rep, "skipped")
        code, _ = run(tmp_path, fam, "family-square", "--weight", "4",
                      "--strict", capsys=capsys)
        assert code == 1

    def test_parity_zero_base_names_the_cause(self, tmp_path, capsys):
        code, rep = run(tmp_path, PARITY0_FAMILY, "family-square",
                        "--weight", "4", capsys=capsys)
        cause = "tau vanishes at the origin of a parity-0 point"
        assert code == 0 and rep["report"]["diagnostic"] == cause
        assert [c["detail"] for c in rep["checks"]
                if c["name"] == "square-root-roundtrip"] == [
            f"{cause}; no square-root normal form exists"]

    def test_other_bases_claim_no_parity(self, tmp_path, capsys):
        # a charge -1 base, and a charge-0 base with one nonnegative pivot
        # whose two rows pair to -1 under the flip: no isotropic parity
        for base in ({"gens": [{"-1": "1", "0": "1"}], "tail": 2},
                     {"gens": [{"2": "1", "-1": "1"}, {"0": "1"}], "tail": 2}):
            code, rep = run(tmp_path, dict(FAMILY, base=base), "family-square",
                            "--weight", "4", capsys=capsys)
            assert code == 0
            assert rep["report"]["diagnostic"] == "tau vanishes at the origin"
            assert "tau vanishes at the origin; no square-root normal form " \
                "exists" in [c["detail"] for c in rep["checks"]]

    def test_numeric_flows(self, tmp_path, capsys):
        fam = {"kind": "family", "flows": {"1": "1/2", "3": "-2"},
               "floor": -8}
        code, rep = run(tmp_path, fam, "family-square", "--weight", "4",
                        capsys=capsys)
        assert code == 0 and rep["report"]["section"] == "1/1"

    def test_even_flow_fails_prym_check(self, tmp_path, capsys):
        fam = {"kind": "family", "flows": {"2": "1"}, "floor": -8}
        code, rep = run(tmp_path, fam, "family-square", capsys=capsys)
        assert code == 1 and "prym-flow" in names(rep, "fail")

    def test_even_flow_fails_at_every_floor(self, tmp_path, capsys):
        # at floor -1 the flow cut there is 1, a Prym flow
        for floor in (-1, -2, -8):
            fam = {"kind": "family", "flows": {"2": "a"}, "floor": floor}
            code, rep = run(tmp_path, fam, "family-square", "--weight", "1",
                            capsys=capsys)
            assert code == 1 and names(rep, "fail") == ["prym-flow"]

    def test_answers_do_not_depend_on_the_floor(self, tmp_path, capsys):
        # the base tau reads t4, which a flow cut at floor -3 changes
        fam = {"kind": "family", "flows": {"1": "b", "3": "3/2"}, "base": {
            "gens": [{"-2": "1", "-1": "-1", "2": "2"}, {"-1": "1", "1": "2"}],
            "tail": 2}}
        reports = []
        for floor in (-3, -4, -20):
            code, rep = run(tmp_path, dict(fam, floor=floor), "family-square",
                            "--weight", "3", capsys=capsys)
            assert code == 0
            reports.append({k: v for k, v in rep["report"].items()
                            if k != "floor"})
        assert reports[0] == reports[1] == reports[2]
        section = reports[0]["section"]
        assert section == {"cap": None, "terms": {
            "1": "-5/1", "b1^2": "1/1", "b1^3": "1/3", "b1^4": "-1/4",
            "b1^6": "-1/36"}}

    def test_builds_no_flowed_frame(self, tmp_path, capsys, monkeypatch):
        def refuse(self, g):
            raise AssertionError("family-square flowed a frame")

        monkeypatch.setattr(FramePoint, "flow", refuse)
        for obj, weight in ((TWO_FAMILY, "6"), (PARITY0_FAMILY, "4")):
            code, rep = run(tmp_path, obj, "family-square", "--weight",
                            weight, capsys=capsys)
            assert code == 0 and rep["report"]["tau"]["cap"] == int(weight)

    def test_weight_above_minus_floor_is_refused(self, tmp_path, capsys):
        # the floor bounds the weight, for a charged base as well
        base = {"gens": [{"-1": "1", "1": "1"}], "tail": 0}
        for obj in (TWO_FAMILY, dict(TWO_FAMILY, base=base)):
            code, rep = run(tmp_path, dict(obj, floor=-3), "family-square",
                            "--weight", "4", capsys=capsys)
            assert code == 2 and rep["error"] == (
                "WindowTooSmall: --weight 4 is above -floor 3")

    def test_box_weight_bound(self, tmp_path, capsys, monkeypatch):
        """The section reads the whole base tau, whose partitions fill a
        box of weight len(rows) * (maxtop + 1 - charge): 24 answers, and
        above it the base is refused before a coordinate is read."""
        def base(top):
            return dict(TWO_FAMILY, base={"gens": [{"-1": "1", str(top): "1"}],
                                          "tail": 1})

        code, rep = run(tmp_path, base(23), "family-square", "--weight", "4",
                        capsys=capsys)
        assert code == 0 and rep["report"]["section"]["terms"]

        def refuse(self, lams):
            raise AssertionError("coordinates read past the box bound")

        monkeypatch.setattr(FramePoint, "pluckers", refuse)
        code, rep = run(tmp_path, base(24), "family-square", "--weight", "4",
                        capsys=capsys)
        assert code == 2 and rep["error"] == (
            "ParseError: base tau box weight 25 is above the bound 24")


# name, input, argv, exit code of every report pinned under tests/data/golden
GOLDENS = [
    ("bilinear_cusp", CUSP, ["bilinear"], 0),
    ("bilinear_cusp_w3", CUSP, ["bilinear", "--weight", "3"], 0),
    ("bilinear_three_row", THREE_ROW, ["bilinear"], 0),
    # the 3-row point's sign obstruction sits at weight 4: skipped at 3
    ("bilinear_three_row_w3", THREE_ROW, ["bilinear", "--weight", "3"], 0),
    ("baker_three_row", THREE_ROW, ["baker"], 0),
    ("check_curve_2_5", CURVE_2_5, ["check"], 0),
    ("family_square_two", TWO_FAMILY,
     ["family-square", "--weight", "6"], 0),
    ("tau_three_row", THREE_ROW, ["tau"], 0),
    ("orbit_three_row", THREE_ROW, ["orbit"], 0),
    ("orbit_odd_curve_2_5", CURVE_2_5, ["orbit", "--odd"], 0),
    ("pfaffian_six", SIX_BY_SIX, ["pfaffian"], 0),
    # isotropy, sign-invariance and biduality on charge-0 points
    ("check_cusp", CUSP, ["check"], 0),
    ("check_pencil", PENCIL, ["check"], 0),
    ("check_three_row", THREE_ROW, ["check"], 0),
    # every GR0, P0TRIPLE and CURVE value with diagrams up to weight 2
    ("hierarchy_cusp", CUSP, ["hierarchy", "--maxsize", "2"], 0),
    ("hierarchy_three_row", THREE_ROW, ["hierarchy", "--maxsize", "2"], 1),
    ("family_square_parity0", PARITY0_FAMILY,
     ["family-square", "--weight", "4"], 0),
]


class TestGoldenReports:
    """Reports pinned byte for byte under tests/data/golden."""

    @pytest.mark.parametrize("name, obj, argv, code", GOLDENS)
    def test_report(self, tmp_path, capsys, name, obj, argv, code):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        assert main([argv[0], str(path), *argv[1:]]) == code
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()

    def test_no_command_flows_by_a_non_monomial_unit(self, tmp_path, capsys,
                                                     monkeypatch):
        """A non-monomial flow is the one way to an approximate frame, and
        no command takes it: every golden comes out the same with such a
        flow refused, and every point command answers the 3-row point."""
        flow = FramePoint.flow

        def monomial_only(self, g):
            if len(g.coeffs) != 1:
                raise AssertionError(f"flow by the non-monomial unit {g!r}")
            return flow(self, g)

        monkeypatch.setattr(FramePoint, "flow", monomial_only)
        for name, obj, argv, code in GOLDENS:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(obj))
            assert main([argv[0], str(path), *argv[1:]]) == code, name
            assert capsys.readouterr().out == (
                GOLDEN / f"{name}.json").read_text(), name
        for cmd in ("check", "tau", "baker", "bilinear", "hierarchy",
                    "orbit"):
            code, rep = run(tmp_path, THREE_ROW, cmd, capsys=capsys)
            assert code in (0, 1) and "report" in rep, cmd


def test_tau_work_on_three_row_point(tmp_path, capsys, monkeypatch):
    """One tau per request, to the weight the report prints: the
    flow-consistency check reads the tau the report prints, so the support
    box is swept once, through --weight, and its coordinates come off one
    reduction.  The check flows no frame and reads no minor: its vacuum
    minor is one block of the rows."""
    sweeps = []
    support = tau.plucker_support

    def counting_support(u, cap=None):
        sweeps.append(cap)
        return support(u, cap)

    def refuse(*args):
        raise AssertionError("a tau request flowed a frame or read a minor")

    monkeypatch.setattr(tau, "plucker_support", counting_support)
    monkeypatch.setattr(FramePoint, "flow", refuse)
    monkeypatch.setattr(FramePoint, "minor", refuse)
    code, rep = run(tmp_path, THREE_ROW, "tau", capsys=capsys)
    assert code == 0 and rep["report"]["tau"]["terms"]
    assert sweeps == [8]


# rows z^-1 + 3 z^2 and z over tail 2: at the window radii 1 and 2 a flow
# cut at the window floor drops p_3 and p_4 of the weight-4 check
TWO_ROW = {"kind": "point", "gens": [{"-1": "1", "2": "3"}, {"1": "1"}],
           "tail": 2}


@pytest.mark.parametrize("radius", ["1", "2"])
def test_tau_check_reads_no_window(tmp_path, capsys, radius):
    r = int(radius)
    code, rep = run(tmp_path, dict(TWO_ROW, window=[-r, r]), "tau",
                    capsys=capsys)
    assert code == 0 and names(rep, "pass") == ["flow-consistency"]


# {-1: 1, 0: 2} over tail 40: support (39) and (40), past every cap
TAIL_40 = {"kind": "point", "gens": [{"-1": "1", "0": "2"}], "tail": 40,
           "window": [-8, 8]}
# a generator reaching exponent 4096, the largest io reads: a support box
# 4097 wide
EXPONENT_4096 = {"kind": "point", "gens": [{"0": "1", "4096": "1"}],
                 "tail": 1, "window": [-8, 8]}


@pytest.mark.parametrize("obj, argv, cap", [
    (TAIL_40, ["tau", "--weight", "4"], 4),
    (TAIL_40, ["hierarchy", "--maxsize", "2"], 8),
    (EXPONENT_4096, ["tau", "--weight", "2"], 2),
], ids=["tail40-tau", "tail40-hierarchy", "exponent4096-tau"])
def test_work_bounded_by_the_weight_read(tmp_path, capsys, monkeypatch,
                                         obj, argv, cap):
    """Tau is built only to the weight its caller reads (--weight, or
    3 * maxsize + 2 for the suite): however wide the support box, no Schur
    polynomial is formed and no coordinate evaluated for a partition past
    that cap, whether pluckers reads it or a single minor."""
    schurs, coords = [], []
    schur = symfun.schur
    plucker, pluckers = FramePoint.plucker, FramePoint.pluckers

    def counting_schur(lam):
        schurs.append(Partition(lam).weight)
        return schur(lam)

    def counting_plucker(self, lam):
        coords.append(Partition(lam).weight)
        return plucker(self, lam)

    def counting_pluckers(self, lams):
        coords.extend(Partition(lam).weight for lam in lams)
        return pluckers(self, lams)

    monkeypatch.setattr(symfun, "schur", counting_schur)
    monkeypatch.setattr(tau, "schur", counting_schur)
    monkeypatch.setattr(FramePoint, "plucker", counting_plucker)
    monkeypatch.setattr(FramePoint, "pluckers", counting_pluckers)
    code, rep = run(tmp_path, obj, *argv, capsys=capsys)
    assert code == 0 and rep["ok"]
    assert max(schurs, default=0) <= cap
    assert coords and max(coords) <= cap
    # the pruned support box; tau's check reads no coordinate
    assert len(coords) <= len(partitions_upto(cap))


def test_bilinear_work_on_three_row_point(tmp_path, capsys, monkeypatch):
    """One pair of residual matrices and one orthogonal complement per
    request, and no series product with polynomial coefficients: the
    residuals come off the residual matrices."""
    calls = {"orthogonal": 0, "poly_series_mul": 0, "residual_matrices": 0}
    orthogonal, mul = FramePoint.orthogonal, LaurentSeries.__mul__
    matrices = tau.baker_residual_matrices

    def has_poly(x):
        if isinstance(x, LaurentSeries):
            return any(isinstance(c, TimePolynomial)
                       for c in x.coeffs.values())
        return isinstance(x, TimePolynomial)

    def counting_orthogonal(self, *args, **kwargs):
        calls["orthogonal"] += 1
        return orthogonal(self, *args, **kwargs)

    def counting_mul(self, other):
        calls["poly_series_mul"] += has_poly(self) or has_poly(other)
        return mul(self, other)

    def counting_matrices(*args, **kwargs):
        calls["residual_matrices"] += 1
        return matrices(*args, **kwargs)

    for module in (tau, cli):
        monkeypatch.setattr(module, "baker_residual_matrices",
                            counting_matrices)
    monkeypatch.setattr(FramePoint, "orthogonal", counting_orthogonal)
    monkeypatch.setattr(LaurentSeries, "__mul__", counting_mul)
    monkeypatch.setattr(LaurentSeries, "__rmul__", counting_mul)
    code, rep = run(tmp_path, THREE_ROW, "bilinear", capsys=capsys)
    assert code == 0 and rep["report"]["second_residual"]["terms"]
    assert calls == {"orthogonal": 1, "poly_series_mul": 0,
                     "residual_matrices": 1}


def test_cli_import_skips_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at start-up
    src = str(Path(zgrass.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, zgrass.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry():
    # the child imports zgrass from wherever this process found it, so the
    # test also runs from a checkout without an install
    src = str(Path(zgrass.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zgrass.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "zgrass 0.1.0"


# -- argv reading ----------------------------------------------------------------

COMMANDS = ("'check', 'tau', 'baker', 'bilinear', 'hierarchy', 'orbit', "
            "'pfaffian', 'family-square'")


def run_argv(tmp_path, capsys, argv, obj=CUSP):
    """(exit code, stdout, stderr) of main on argv, "F" naming a file that
    holds obj; a SystemExit counts as its code."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    try:
        code = main([str(path) if a == "F" else a for a in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestArgv:
    """Every argv form the argparse front end accepted or refused, with the
    exit codes and final stderr lines it gave."""

    @pytest.mark.parametrize("argv, line", [
        ([], "zgrass: error: the following arguments are required: command"),
        (["--bogus"],
         "zgrass: error: the following arguments are required: command"),
        (["bogus", "F"], "zgrass: error: argument command: invalid choice: "
         f"'bogus' (choose from {COMMANDS})"),
        (["che", "F"], "zgrass: error: argument command: invalid choice: "
         f"'che' (choose from {COMMANDS})"),
        (["check"],
         "zgrass check: error: the following arguments are required: file"),
        (["tau", "--version"],
         "zgrass tau: error: the following arguments are required: file"),
        (["tau", "F", "--weight", "x"],
         "zgrass tau: error: argument --weight: invalid int value: 'x'"),
        (["tau", "F", "--weight="],
         "zgrass tau: error: argument --weight: invalid int value: ''"),
        (["tau", "F", "--weight"],
         "zgrass tau: error: argument --weight: expected one argument"),
        (["tau", "F", "--weight", "-x"],
         "zgrass tau: error: argument --weight: expected one argument"),
        (["check", "F", "--window", "--strict"],
         "zgrass check: error: argument --window: expected one argument"),
        (["check", "F", "--out"],
         "zgrass check: error: argument --out: expected one argument"),
        (["orbit", "F", "--o", "3"], "zgrass orbit: error: ambiguous "
         "option: --o could match --odd, --out"),
        (["orbit", "F", "--o=3"], "zgrass orbit: error: ambiguous option: "
         "--o=3 could match --odd, --out"),
        (["check", "F", "extra"],
         "zgrass: error: unrecognized arguments: extra"),
        (["check", "F", "extra", "--bogus"],
         "zgrass: error: unrecognized arguments: extra --bogus"),
        (["check", "F", "--weight", "3"],
         "zgrass: error: unrecognized arguments: --weight 3"),
        (["check", "F", "-x"], "zgrass: error: unrecognized arguments: -x"),
        (["tau", "F", "--", "--weight"],
         "zgrass: error: unrecognized arguments: --weight"),
        (["orbit", "F", "--odd=1"],
         "zgrass orbit: error: argument --odd: ignored explicit argument '1'"),
        (["check", "F", "--strict=yes"], "zgrass check: error: argument "
         "--strict: ignored explicit argument 'yes'"),
        # options act in order: the bad value comes before the help
        (["tau", "F", "--weight", "x", "-h"],
         "zgrass tau: error: argument --weight: invalid int value: 'x'"),
    ])
    def test_usage_errors(self, tmp_path, capsys, argv, line):
        code, out, err = run_argv(tmp_path, capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: zgrass")
        assert err.splitlines()[-1] == line

    @pytest.mark.parametrize("argv, same_as", [
        (["tau", "F", "--wei", "3"], ["tau", "F", "--weight", "3"]),
        (["tau", "F", "--weight=3"], ["tau", "F", "--weight", "3"]),
        (["tau", "--weight", "3", "F"], ["tau", "F", "--weight", "3"]),
        (["check", "--window=5", "F"], ["check", "F", "--window", "5"]),
        (["tau", "--", "F"], ["tau", "F"]),
        (["check", "F", "--"], ["check", "F"]),
        (["tau", "F", "--weight", "2", "--weight", "3"],
         ["tau", "F", "--weight", "3"]),
        (["tau", "F", "--weight", "+3"], ["tau", "F", "--weight", "3"]),
        (["check", "F", "--s"], ["check", "F", "--strict"]),
        (["check", "F", "--wi", "3", "--s"],
         ["check", "F", "--window", "3", "--strict"]),
        # a negative value reaches the range check and its JSON error
        (["tau", "F", "--weight=-1"], ["tau", "F", "--weight", "-1"]),
        (["tau", "F", "--weight", "-5"], ["tau", "F", "--weight=-5"]),
    ])
    def test_accepted_forms(self, tmp_path, capsys, argv, same_as):
        code, out, err = run_argv(tmp_path, capsys, argv)
        assert err == "" and json.loads(out)
        assert (code, out, err) == run_argv(tmp_path, capsys, same_as)

    @pytest.mark.parametrize("argv", [["--version"], ["--vers"],
                                      ["--version", "tau", "F"]])
    def test_version(self, tmp_path, capsys, argv):
        assert run_argv(tmp_path, capsys, argv) == (
            0, f"zgrass {__version__}\n", "")

    TOP_HELP = """\
usage: zgrass COMMAND FILE [options]

exact computations on finite-window Laurent frames

  check          structural invariants of a point or curve span
  tau            tau polynomial of a point
  baker          Baker series blocks of a point
  bilinear       bilinear residuals of a point
  hierarchy      constraint suite of a point
  orbit          flow-orbit profile of a point or curve span
  pfaffian       Pfaffian of an alternating matrix
  family-square  flow a family out of the vacuum and take the square-root \
normal form
  -h, --help     show this help and exit
  --version      show the version and exit
"""

    TAU_HELP = """\
usage: zgrass tau FILE [options]

tau polynomial of a point

  file        JSON input file
  -h, --help  show this help and exit
  --weight W  weight bound for series and polynomials, 0 to 24 (default 8)
  --strict    treat skipped checks as failures
  --out FILE  write the report here instead of stdout
"""

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--h"],
                                      ["-h", "tau"]])
    def test_top_help(self, tmp_path, capsys, argv):
        assert run_argv(tmp_path, capsys, argv) == (0, self.TOP_HELP, "")

    @pytest.mark.parametrize("argv", [
        ["tau", "F", "-h"], ["tau", "--help"], ["tau", "-h", "F"],
        ["tau", "F", "--weight", "3", "--he"],
        ["tau", "-h", "F", "--weight", "x"]])
    def test_command_help(self, tmp_path, capsys, argv):
        assert run_argv(tmp_path, capsys, argv) == (0, self.TAU_HELP, "")

    @pytest.mark.parametrize("cmd", list(cli._COMMANDS))
    def test_every_command_help(self, tmp_path, capsys, cmd):
        """file, each option with its metavar, range and default, then
        --strict and --out FILE."""
        code, out, err = run_argv(tmp_path, capsys, [cmd, "-h"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == f"usage: zgrass {cmd} FILE [options]"
        assert lines[2] == cli._COMMANDS[cmd][2]
        rows = [line.split()[0] for line in lines[4:]]
        options = list(cli._COMMANDS[cmd][3])
        assert rows == ["file", "-h,", *(f"--{k}" for k in options),
                        "--strict", "--out"]
        for key in options:
            default, bounds, metavar, _ = cli._OPTIONS[key]
            [row] = [line for line in lines if f"--{key}" in line]
            if bounds:
                assert row.split()[:2] == [f"--{key}", metavar]
                assert row.endswith(
                    f", {bounds[0]} to {bounds[1]} (default {default})")
        assert "  --out FILE  " in out

    def test_no_argparse_gettext_or_locale(self, tmp_path):
        """A cold request reads its argv without argparse, whose first
        message lookup imports gettext and locale."""
        path = tmp_path / "cusp.json"
        path.write_text(json.dumps(CUSP))
        src = str(Path(zgrass.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import io, sys, contextlib, zgrass.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = zgrass.cli.main(['check', {str(path)!r}])\n"
             "print(code, sorted(sys.modules))"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        code, modules = proc.stdout.split(" ", 1)
        assert code == "0"
        assert {"argparse", "gettext", "locale"}.isdisjoint(eval(modules))


@pytest.mark.parametrize("tail", [4, 40])
def test_bilinear_obstruction_outside_the_block_is_skipped(tmp_path, capsys,
                                                          tail):
    """{-1: 1, 0: 2} is not sign-invariant, but from tail 4 on both
    residuals vanish through --weight 4 and the (rows + 2) block of the
    second residual matrix is zero: the obstruction is out of sight, so the
    sign check skips rather than fails."""
    point = dict(TAIL_40, tail=tail)
    code, rep = run(tmp_path, point, "bilinear", "--weight", "4",
                    capsys=capsys)
    assert code == 0 and rep["ok"]
    assert rep["report"]["sigma_invariant"] is False
    assert not rep["report"]["second_residual"]["terms"]
    assert [c for c in rep["checks"]
            if c["name"] == "sign-residues-match-invariance"] == [{
                "name": "sign-residues-match-invariance",
                "status": "skipped",
                "detail": "the sign obstruction lies above the 3 x 3 block "
                          "and above --weight 4"}]
    code, _ = run(tmp_path, point, "bilinear", "--weight", "4", "--strict",
                  capsys=capsys)
    assert code == 1


# -- JSON codec round trip -------------------------------------------------------


def poly_from_json(obj):
    """A report polynomial read back: each coefficient through io's rational
    codec, each monomial label as io.mono_str writes it ("t1^2 s3", "1")."""
    def mono(label):
        out = []
        for var in label.split() if label != "1" else ():
            name, _, mult = var.partition("^")
            fam = name.rstrip("0123456789")
            out.append(((fam, int(name[len(fam):])), int(mult or 1)))
        assert (mono_str(tuple(out)) or "1") == label
        return out

    return TimePolynomial({tuple(mono(m)): parse_frac(c)
                           for m, c in obj["terms"].items()}, obj["cap"])


class TestCodecRoundTrip:
    """Every polynomial, series, matrix, rational, isotropy witness and Prym
    flag a golden report prints reads back through the io codecs as the
    library value it came from."""

    WINDOW = (-32, 32)

    @staticmethod
    def golden(name):
        return json.loads((GOLDEN / f"{name}.json").read_text())["report"]

    def point(self, obj):
        return point_from_json(obj, self.WINDOW)

    def test_tau(self):
        rep = self.golden("tau_three_row")
        want = tau.tau_function(self.point(THREE_ROW), 8)
        assert want.terms and poly_from_json(rep["tau"]) == want

    def test_baker(self):
        rep = self.golden("baker_three_row")
        pairs = tau.baker(self.point(THREE_ROW), 8)
        assert len(rep["blocks"]) == len(pairs)
        for got, (row, block) in zip(rep["blocks"], pairs):
            assert series_from_json(got["row"]) == row
            assert poly_from_json(got["block"]) == block

    @pytest.mark.parametrize("name, obj, weight", [
        ("bilinear_cusp", CUSP, 8), ("bilinear_cusp_w3", CUSP, 3),
        ("bilinear_three_row", THREE_ROW, 8),
        ("bilinear_three_row_w3", THREE_ROW, 3)])
    def test_bilinear(self, name, obj, weight):
        rep = self.golden(name)
        u = self.point(obj)
        n = len(u.rows) + 2
        matrices = tau.baker_residual_matrices(u, max(weight, n))
        r1, r2 = tau.bilinear_residues(matrices, weight)
        assert poly_from_json(rep["first_residual"]) == r1
        assert poly_from_json(rep["second_residual"]) == r2
        assert matrix_from_json(rep["second_matrix"]) == [
            row[:n] for row in matrices[1][:n]]

    @pytest.mark.parametrize("name, obj, odd", [
        ("orbit_three_row", THREE_ROW, False),
        ("orbit_odd_curve_2_5", CURVE_2_5, True)])
    def test_orbit(self, name, obj, odd):
        rep = self.golden(name)
        if obj["kind"] == "curve":
            u = krichever.span_closure(*curve_from_json(obj, self.WINDOW))
        else:
            u = self.point(obj)
        basis = krichever.orbit_profile(u, nmax=12, odd_only=odd).stabilizer
        assert basis and [series_from_json(b)
                          for b in rep["stabilizer"]] == list(basis)

    @pytest.mark.parametrize("name, obj", [
        ("check_cusp", CUSP), ("check_pencil", PENCIL),
        ("check_three_row", THREE_ROW)])
    def test_check_point(self, name, obj):
        rep = self.golden(name)
        iso = self.point(obj).isotropy()
        assert (rep["isotropic"], rep["parity"]) == iso[:2]
        if iso.witness is None:
            assert "witness" not in rep
        else:
            *where, value = rep["witness"]
            assert (*where, parse_frac(value)) == iso.witness

    def test_check_curve(self):
        rep = self.golden("check_curve_2_5")
        u = krichever.span_closure(*curve_from_json(CURVE_2_5, self.WINDOW))
        assert rep["prym"] == krichever.p0_membership(u)._asdict()

    def test_one_encoder(self):
        # a value's JSON spelling has one home, io.to_json, which cli._emit
        # applies once per report; no command converts a value by hand
        assert [n for n in vars(zgrass.io) if n.endswith("to_json")] == [
            "to_json"]
        assert [n for n in vars(cli) if "json_value" in n
                or n.endswith("to_json")] == ["to_json"]
        assert Path(cli.__file__).read_text().count("to_json(") == 1

    def test_to_json_refuses_other_types(self):
        with pytest.raises(TypeError, match="FramePoint"):
            to_json({"report": [self.point(CUSP)]})

    def test_pfaffian(self):
        rep = self.golden("pfaffian_six")
        m = matrix_from_json(SIX_BY_SIX["entries"])
        assert parse_frac(rep["pfaffian"]) == pfaffian(m)
        assert parse_frac(rep["determinant"]) == det_field(m)

    @pytest.mark.parametrize("name, obj", [("hierarchy_cusp", CUSP),
                                           ("hierarchy_three_row", THREE_ROW)])
    def test_hierarchy(self, name, obj):
        rep = self.golden(name)
        t = tau.tau_function(self.point(obj), hierarchy.suite_weight(2))
        entries = hierarchy.constraint_suite(t, 2)
        assert [None if e["value"] is None else parse_frac(e["value"])
                for e in rep["suite"]] == [e.value for e in entries]

    @pytest.mark.parametrize("name, obj, weight", [
        ("family_square_two", TWO_FAMILY, 6),
        ("family_square_parity0", PARITY0_FAMILY, 4)])
    def test_family_square(self, name, obj, weight):
        """The golden tau and section against the flowed frame."""
        rep = self.golden(name)
        flows, floor, base = family_from_json(obj)
        start = (FramePoint.vacuum() if base is None
                 else point_from_json(base, (floor, -floor)))
        t, section = flowed_tau(start, flows, floor, weight)
        got = rep["section"]  # a rational on the base orbit
        assert (parse_frac(got) if isinstance(got, str)
                else poly_from_json(got)) == section
        assert parse_frac(rep["section_square"]["scale"]) == (
            section_square_check(section).scale)
        assert poly_from_json(rep["tau"]) == t
        if "root" in rep:
            nf = tau.taubar(t, weight)
            assert poly_from_json(rep["root"]) == nf.root
            assert parse_frac(rep["scale"]) == nf.scale
