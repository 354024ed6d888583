"""Command line interface: schemas, determinism, exit codes."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kstab.cli import main
from kstab.laurent import FactorizationError
from kstab.quadrature import QuadratureError
from kstab.weights import frac_str

DATA = Path(__file__).resolve().parents[1] / "data"

# g = [[1, 0, 0], [1, 1, 0], [0, 0, t]]: L(0) of its normal form is not diagonal, so chow pairs by quadrature
SHEAR_LOOP = {"size": 3, "entries": [[[0, 1, 1]], [], [], [[0, 1, 1]], [[0, 1, 1]], [], [], [], [[1, 1, 1]]]}


def run(runner, *args):
    return runner.invoke(main, args)


class TestFutakiCommand:
    def test_conic_report(self, runner):
        res = run(runner, "futaki", "--input", str(DATA / "conic_weights.json"))
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["futaki"] == "1/8"
        assert rep["I"] == "1/2"
        assert rep["chow"]["1"] == "1/12"

    def test_byte_identical_runs(self, runner):
        args = ["futaki", "--input", str(DATA / "conic_weights.json")]
        out1 = run(runner, *args).output
        out2 = run(runner, *args).output
        assert out1 == out2

    def test_flipped_sign(self, runner):
        res = run(
            runner,
            "futaki",
            "--input",
            str(DATA / "conic_weights.json"),
            "--sign",
            "flipped",
        )
        rep = json.loads(res.output)
        assert rep["I"] == "-1/2"

    def test_level_range_lower_bound(self, runner):
        res = run(runner, "futaki", "--input", str(DATA / "conic_weights.json"), "--k", "5:10")
        assert res.exit_code == 0
        full = json.loads(run(runner, "futaki", "--input", str(DATA / "conic_weights.json")).output)
        rep = json.loads(res.output)
        assert sorted(map(int, rep["chow"])) == list(range(5, 11))
        assert rep["chow"] == {k: v for k, v in full["chow"].items() if int(k) >= 5}

    def test_level_table_holds_8192_levels(self, runner):
        # the table's cost grows with its number of levels, wherever they start
        for krange in ["1:8192", "2:8193"]:
            res = run(runner, "futaki", "--input", str(DATA / "conic_weights.json"), "--k", krange)
            assert res.exit_code == 0 and len(json.loads(res.output)["chow"]) == 8192

    @pytest.mark.parametrize("sign, flip", [("calibrated", 1), ("flipped", -1)], ids=["calibrated", "flipped"])
    @pytest.mark.parametrize("dim, gens, degree, lam, chow", [
        # plane quintic: the Hilbert polynomial 5k - 5 vanishes at k = 1, where there are 3 sections
        (1, [0, 1, 2], 5, 0, ["1/2", "1/1", "3/2"]),
        # plane quartic: level 1 has sections of weights -1, 1 and 2, not the polynomial's 2
        (1, [2, -1, 1], 4, 2, ["1/12", "1/6", "1/4"]),
        # binary cubic: the polynomial counts 3 sections at k = 1, where there are 2
        (0, [0, 1], 3, 1, ["1/6", "1/3", "1/3"]),
    ], ids=["plane-quintic", "plane-quartic", "binary-cubic"])
    def test_levels_below_degree_are_the_levels_own(self, runner, tmp_path, sign, flip, dim, gens, degree, lam, chow):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"dim": dim, "generators": gens, "geometry": {
            "type": "hypersurface", "degree": degree, "initial_weight": lam}}))
        res = run(runner, "futaki", "--input", str(path), "--k", "1:3", "--sign", sign)
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["chow"] == {str(k): frac_str(flip * Fraction(ch)) for k, ch in enumerate(chow, 1)}
        assert "note" not in rep

    @pytest.mark.parametrize("geometry", [
        {"type": "projective"},
        {"type": "hypersurface", "degree": 3, "initial_weight": 3},
    ], ids=["projective", "hypersurface"])
    def test_dimension_30(self, runner, tmp_path, geometry):
        # One generator per coordinate of P^30 (P^31 for the hypersurface); the
        # level-k monomials number C(30 + k, 30), far too many to list.
        gens = list(range(31 if geometry["type"] == "projective" else 32))
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"dim": 30, "generators": gens, "geometry": geometry}))
        proc = subprocess.run(
            [sys.executable, "-m", "kstab.cli", "futaki", "--input", str(path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        conic = json.loads(run(runner, "futaki", "--input", str(DATA / "conic_weights.json")).output)
        assert rep.keys() == conic.keys()
        assert len(rep["tau_coefficients"]) == 32 and len(rep["hilbert_coefficients"]) == 31
        assert sorted(map(int, rep["chow"])) == list(range(1, 11))
        if geometry["type"] == "projective":
            assert rep["futaki"] == "0/1"

    @pytest.mark.parametrize("doc, message", [
        ({"dim": -1, "generators": [], "geometry": {"type": "projective"}}, "dim must be >= 0, got -1"),
        ({"dim": 1, "generators": [0, 1], "geometry": "projective"},
         "geometry must be a JSON object, got 'projective'"),
        ({"dim": 1, "generators": [0, 1], "geometry": {"type": "projective", "degree": 3, "initial_weight": 7}},
         "projective geometry takes no degree"),
    ], ids=["negative-dim", "geometry-string", "projective-stray-field"])
    def test_unreadable_weight_system_names_its_field(self, runner, tmp_path, doc, message):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        res = run(runner, "futaki", "--input", str(path))
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr.splitlines() == [f"error: bad weight system: {message}"]

    @pytest.mark.parametrize("gens, degree, lam, code", [
        ([0, 1, 2], 2000, 0, 0),
        ([0, 1, 2], 20000, 0, 0),
        ([0, 1, 2], 2 * 10**6, 0, 0),
        ([7**i for i in range(12)], 6, 343 * 6, 0),
        ([7**i for i in range(12)], 10, 343 * 10, 0),
        ([7**i for i in range(12)], 14, 343 * 14, 0),
        ([0] + [7**i for i in range(12)], 30, 15 * 7**11 - 1, 2),
        ([0, 1, 2], 2 * 10**6, 2 * 10**6, 0),
    ], ids=["d2000", "d20000", "d2e6", "powers-d6", "powers-d10", "powers-d14", "over-the-bound", "d2e6-middle"])
    def test_initial_weight_check_is_bounded(self, capped_python, tmp_path, gens, degree, lam, code):
        # the check keeps the distinct partial sums that can still reach the
        # initial weight, not a count of every sum at every level, so a high
        # degree ends at once, under a memory cap, or is refused naming the bound
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"dim": len(gens) - 2, "generators": gens, "geometry": {
            "type": "hypersurface", "degree": degree, "initial_weight": lam}}))
        proc = capped_python(f"from kstab.cli import main; main(['futaki', '--input', {str(path)!r}])")
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stderr.splitlines() == [
                f"error: bad weight system: checking initial weight {lam} needs more than 2^21 = 2097152 partial sums"]
        else:
            assert json.loads(proc.stdout)["geometry"]["degree"] == degree


class TestFactorizeCommand:
    def test_conic_loop(self, runner):
        res = run(runner, "factorize", "--input", str(DATA / "conic_loop.json"))
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["weights"] == [1, 0, 0]
        assert rep["exponents"] == [0, 0, 1]


class TestChowCommand:
    def test_conic(self, runner):
        res = run(
            runner,
            "chow",
            "--input",
            str(DATA / "conic_form.json"),
            "--loop",
            str(DATA / "conic_loop.json"),
        )
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["chow_weight"] == "1/12"
        assert rep["inequality_satisfied"] is True
        assert abs(rep["pairing"] - 1 / 12) < 1e-6

    def test_trivial_degeneration_notes_no_pairing(self, runner, tmp_path):
        # x0^2 + x1^2 + x2^2 + x0 x1 is not toric, and the identity loop
        # leaves it where it is: no torus decomposes the central fiber
        form, loop = tmp_path / "form.json", tmp_path / "loop.json"
        form.write_text(json.dumps({"form": {"2,0,0": [1, 0], "0,2,0": [1, 0], "0,0,2": [1, 0], "1,1,0": [1, 0]}}))
        loop.write_text(json.dumps({"size": 3, "entries": [[[0, 1, 1]], [], [], [], [[0, 1, 1]], [], [], [], [[0, 1, 1]]]}))
        res = run(runner, "chow", "--input", str(form), "--loop", str(loop))
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert set(rep) == {"chow_weight", "convention", "note"}
        assert rep["chow_weight"] == "0/1"
        assert rep["note"].startswith("no central-fiber pairing: ")

    def test_exact_pairing(self, runner):
        # the central fiber x0 x2 = 0 is torus-invariant, so Duistermaat-Heckman gives the pairing exactly
        res = run(runner, "chow", "--input", str(DATA / "conic_form.json"), "--loop", str(DATA / "conic_loop.json"))
        assert res.exit_code == 0
        assert '"pairing": 0.08333333333333333,' in res.stdout and '"slack": 0.0,' in res.stdout
        assert json.loads(res.stdout)["quad_error"] == 0.0

    @pytest.mark.parametrize("form, loop", [
        ({"1,0,1": 1, "0,2,0": -1}, SHEAR_LOOP),
        ({"1,1,0": 1, "0,2,0": {"1": 1}}, {"size": 3, "entries": [[[0, 1, 1]], [], [], [], [[1, 1, 1]], [], [], [],
                                                                  [[0, 1, 1]]]}),
    ], ids=["non-diagonal-left-factor", "tilted-segment"])
    def test_quadrature_fallback_prints_the_quadrature_path(self, runner, tmp_path, form, loop):
        from kstab import chow, laurent

        form_path, loop_path = tmp_path / "form.json", tmp_path / "loop.json"
        form_path.write_text(json.dumps({"form": form}))
        loop_path.write_text(json.dumps(loop))
        res = run(runner, "chow", "--input", str(form_path), "--loop", str(loop_path))
        f, g = chow.form_from_json({"form": form}), laurent.loop_from_json(loop)
        assert chow.central_fiber_pairing(f, g)[1] is None
        ch = chow.chow_weight(f, g)
        chk = chow.check_chow_inequality(g, chow.central_fiber_cycle(f, g), ch=ch)
        want = {"chow_weight": frac_str(ch), "convention": "calibrated", "pairing": chk.pairing, "slack": chk.slack,
                "quad_error": chk.quad_error, "inequality_satisfied": chk.satisfied, "weights": list(chk.weights),
                "section_diagonal": list(chk.exponents)}
        assert res.exit_code == 0 and res.stdout == json.dumps(want, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("loop", [None, SHEAR_LOOP], ids=["exact", "quadrature-fallback"])
    def test_one_window_per_run(self, runner, monkeypatch, tmp_path, loop):
        import kstab.chow as chow

        loop_path = DATA / "conic_loop.json"
        if loop is not None:
            loop_path = tmp_path / "loop.json"
            loop_path.write_text(json.dumps(loop))
        calls, real = [], chow._lowest_terms
        monkeypatch.setattr(chow, "_lowest_terms", lambda *a: calls.append(1) or real(*a))
        res = run(runner, "chow", "--input", str(DATA / "conic_form.json"), "--loop", str(loop_path))
        assert res.exit_code == 0 and (json.loads(res.stdout)["quad_error"] == 0.0) is (loop is None)
        assert len(calls) == 1

    @pytest.mark.parametrize("tol, satisfied", [("1e-6", "true"), ("0", "true"), ("-1e-9", "false"), ("-1", "false")])
    def test_tol_applies_to_the_exact_slack(self, runner, tol, satisfied):
        res = run(runner, "chow", "--input", str(DATA / "conic_form.json"), "--loop", str(DATA / "conic_loop.json"),
                  "--tol", tol)
        assert res.exit_code == 0 and f'"inequality_satisfied": {satisfied},' in res.stdout

    @pytest.mark.parametrize("form, message", [
        ({"2,0": 1, "0,2": 1}, "loop size does not match the number of variables"),
        ({"2": 1}, "ambient projective space must have dimension >= 1"),
    ], ids=["size-mismatch", "one-variable"])
    def test_one_by_one_loop_names_its_fault(self, runner, tmp_path, form, message):
        # the sizes are compared before the dimension, so a 2-variable form
        # with a 1 x 1 loop is a size mismatch, not a too-small ambient space
        form_path, loop_path = tmp_path / "form.json", tmp_path / "loop.json"
        form_path.write_text(json.dumps({"form": form}))
        loop_path.write_text(json.dumps({"size": 1, "entries": [[[0, 1, 1]]]}))
        res = run(runner, "chow", "--input", str(form_path), "--loop", str(loop_path))
        assert res.exit_code == 3 and res.stdout == ""
        assert res.stderr == f"error: {message}\n"


class TestMomentCommand:
    def test_line(self, runner):
        res = run(runner, "moment", "--input", str(DATA / "line_cycle.json"))
        rep = json.loads(res.output)
        diag = [rep["matrix_re"][i][i] for i in range(3)]
        assert abs(diag[0] - 1 / 6) < 1e-10
        assert abs(diag[1] + 1 / 3) < 1e-10


    @pytest.mark.parametrize("rows", [
        [[[0, 0], [1, 0]], [[0, 0], [0, 0], [1, 0]]],
        [[[0, 0], [1, 0]], [[0, 0]]],
        [[[0, 0], [1, 0]], [[0, 0]], [[0, 0], [1, 0]]],
    ], ids=["base-point-s-s2", "one-row", "common-factor"])
    def test_monomial_curve_with_base_point_exit_4(self, runner, tmp_path, rows):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"ambient": len(rows) - 1, "components": [{"coeffs": rows}]}))
        res = run(runner, "moment", "--input", str(path))
        assert res.exit_code == 4 and res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert re.fullmatch(r"error: cycle mass [01] does not match nominal degree [12]; "
                            r"parametrization may have base points\n", res.stderr)


class TestBalanceCommand:
    def test_converges_csv(self, runner, tmp_path):
        out = tmp_path / "residuals.csv"
        res = run(
            runner,
            "balance",
            "--input",
            str(DATA / "rnc3_distorted_cycle.json"),
            "--format",
            "csv",
            "--out",
            str(out),
        )
        assert res.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,residual"
        assert float(lines[-1].split(",")[1]) <= 1e-8

    def test_nonconvergence_exit_code(self, runner):
        res = runner.invoke(
            main,
            [
                "balance",
                "--input",
                str(DATA / "crossing_lines_cycle.json"),
                "--max-steps",
                "15",
            ],
        )
        assert res.exit_code == 4

    def test_crossing_lines_break_down(self, runner):
        res = runner.invoke(main, ["balance", "--input", str(DATA / "crossing_lines_cycle.json")])
        assert res.exit_code == 4
        rep = json.loads(res.stdout)
        # quadrature fails along the degenerating orbit: the mass leaves 2
        assert not rep["converged"] and rep["steps"] == len(rep["residuals"]) - 1
        assert rep["note"].startswith("iteration broke down: cycle mass ")
        assert rep["note"].endswith(" does not match degree 2")

    def test_line_loses_positivity(self, runner):
        res = run(runner, "balance", "--input", str(DATA / "line_cycle.json"))
        assert res.exit_code == 4
        rep = json.loads(res.stdout)
        assert rep["note"] == "iteration broke down: second-moment matrix lost positivity"
        assert res.stderr == f"non-convergence after 0 steps; {rep['note']}\n"

    def test_floor_above_tol_stops_early(self, runner):
        # residuals reach 3e-16 by step 13 and then wander between 2e-16 and
        # 5e-16; without a stall test the run took all 200 steps
        args = ["--input", str(DATA / "rnc3_distorted_cycle.json"), "--max-steps", "200"]
        res = run(runner, "balance", *args, "--tol", "1e-300")
        assert res.exit_code == 4
        rep = json.loads(res.stdout)
        assert not rep["converged"] and rep["steps"] <= 25
        assert rep["note"] == f"residual at its floating-point floor {min(rep['residuals']):.3e}, above tol 1e-300"
        assert res.stderr == f"non-convergence after {rep['steps']} steps; {rep['note']}\n"
        # a tol the iteration reaches converges as before
        rep = json.loads(run(runner, "balance", *args, "--tol", "1e-8").stdout)
        assert rep["converged"] and rep["steps"] == 8


@pytest.mark.parametrize("command", ["moment", "balance"])
def test_overflowing_coefficient_names_its_limit(runner, tmp_path, command):
    # the line (1e200, 0, s): its moduli differ by more than the range, so
    # balance's rescaled (1, 0, 1e-200 s) would underflow to a false "cycle mass 0"
    cycle = json.loads((DATA / "line_cycle.json").read_text())
    cycle["components"][0]["coeffs"][0][0][0] = 1e200
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cycle))
    res = run(runner, command, "--input", str(path))
    assert res.exit_code == 4 and "Warning" not in res.stderr
    assert len(res.stderr.splitlines()) == 1
    moduli = "1e+200 and 1" if command == "moment" else "1 and 1e-200"
    assert res.stderr.endswith(f"coefficient moduli {moduli} of one component differ by more than 6.7e+153: "
                               "scaled to the larger, the smaller squares below the least normal double\n")
    assert res.stderr.startswith("error: " if command == "moment" else "non-convergence after 0 steps; ")


def test_overflowing_dense_coefficient_names_its_limit(runner, tmp_path):
    # (1e200 + s, s, s^2): refused on the range of its coefficient moduli
    cycle = {"ambient": 2, "components": [{"coeffs": [[[1e200, 0], [1, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0], [1, 0]]]}]}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cycle))
    res = run(runner, "moment", "--input", str(path))
    assert res.exit_code == 4 and res.stdout == ""
    assert res.stderr == ("error: coefficient moduli 1e+200 and 1 of one component differ by more than 6.7e+153: "
                          "scaled to the larger, the smaller squares below the least normal double\n")


def test_overflowing_column_norm_names_its_limit(runner, tmp_path):
    # (1e154 + s, 1e154 + s, s^2): just past the range; unscaled, its first
    # column's norm 1.41e154 would square past the largest double
    cycle = {"ambient": 2, "components": [{"coeffs": [[[1e154, 0], [1, 0]], [[1e154, 0], [1, 0]], [[0, 0], [0, 0], [1, 0]]]}]}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cycle))
    res = run(runner, "moment", "--input", str(path))
    assert res.exit_code == 4 and res.stdout == ""
    assert res.stderr == ("error: coefficient moduli 1e+154 and 1 of one component differ by more than 6.7e+153: "
                          "scaled to the larger, the smaller squares below the least normal double\n")


_RANGE_NOTE = "differ by more than 6.7e+153: scaled to the larger, the smaller squares below the least normal double"


def _conic_file(tmp_path, first, second):
    # the conic (first + s, second + s, s^2)
    cycle = {"ambient": 2, "components": [{"coeffs": [[[first, 0], [1, 0]], [[second, 0], [1, 0]],
                                                      [[0, 0], [0, 0], [1, 0]]]}]}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cycle))
    return path


def test_dense_chart_near_the_range_is_refused_in_one_line(runner, tmp_path):
    # its largest column norm 1.339e154 once passed, and the chart arithmetic
    # overflowed into RuntimeWarnings and "Eigenvalues did not converge"
    res = run(runner, "moment", "--input", str(_conic_file(tmp_path, 9.47e153, 9.47e153)))
    assert res.exit_code == 4 and res.stdout == "" and "Warning" not in res.stderr
    assert res.stderr == f"error: coefficient moduli 9.47e+153 and 1 of one component {_RANGE_NOTE}\n"


def test_balance_on_a_subnormal_line_ends_as_the_line(runner, tmp_path):
    # every coefficient 5e-324: dividing by it once overflowed into RuntimeWarnings and "metric is not finite"
    cycle = json.loads((DATA / "line_cycle.json").read_text())
    for comp in cycle["components"]:
        comp["coeffs"] = [[[5e-324 if x else 0.0 for x in pair] for pair in row] for row in comp["coeffs"]]
    (tmp_path / "tiny.json").write_text(json.dumps(cycle))
    tiny, line = (run(runner, "balance", "--input", str(path))
                  for path in (tmp_path / "tiny.json", DATA / "line_cycle.json"))
    assert "Warning" not in tiny.stderr
    assert (tiny.exit_code, tiny.stdout, tiny.stderr) == (line.exit_code, line.stdout, line.stderr)


@pytest.mark.parametrize("first, second, moduli", [(1e200, 0, "1 and 1e-200"), (1e154, 1e154, "1 and 1e-154")])
def test_balance_on_a_large_dense_coefficient_names_the_range(runner, tmp_path, first, second, moduli):
    # not the false "cycle mass 1.26e-30 does not match degree 2" of an underflow
    res = run(runner, "balance", "--input", str(_conic_file(tmp_path, first, second)))
    assert res.exit_code == 4 and "Warning" not in res.stderr
    note = json.loads(res.stdout)["note"]
    assert note == f"iteration broke down: coefficient moduli {moduli} of one component {_RANGE_NOTE}"
    assert res.stderr == f"non-convergence after 0 steps; {note}\n"


def test_subnormal_line_gives_the_line_report(runner, tmp_path):
    # every coefficient 5e-324, the least subnormal: scaled by 2^1074 exactly
    cycle = json.loads((DATA / "line_cycle.json").read_text())
    for row in cycle["components"][0]["coeffs"]:
        for pair in row:
            pair[:] = [5e-324 if x else 0.0 for x in pair]
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cycle))
    res = run(runner, "moment", "--input", str(path))
    assert res.exit_code == 0 and res.stderr == ""
    assert res.stdout == run(runner, "moment", "--input", str(DATA / "line_cycle.json")).stdout


class TestBergmanCommand:
    def test_csv_columns(self, runner, tmp_path):
        out = tmp_path / "run.csv"
        res = run(
            runner,
            "bergman",
            "--input",
            str(DATA / "round_metric.json"),
            "--k",
            "4,8,16",
            "--grid",
            "5",
            "--format",
            "csv",
            "--out",
            str(out),
        )
        assert res.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,gridpoint,rho,a1_fit,theta_tv"
        assert len(lines) == 1 + 3 * 5

    def test_k_range_double(self, runner):
        res = run(
            runner,
            "bergman",
            "--input",
            str(DATA / "round_metric.json"),
            "--k",
            "4:16:double",
            "--grid",
            "3",
        )
        rep = json.loads(res.output)
        assert rep["k"] == [4, 8, 16]

    def test_one_gram_pass_per_level(self, runner, gram_quadratures):
        res = run(
            runner, "bergman", "--input", str(DATA / "bump_metric.json"),
            "--k", "4:16:double", "--grid", "3",
        )
        assert res.exit_code == 0
        assert sorted(gram_quadratures) == [4, 8, 16]


    def test_theta_breaks_at_its_kinks(self, runner, tmp_path):
        # the uniform rule stalled at 512 panels on theta at k = 16 here
        path = tmp_path / "metric.json"
        path.write_text(json.dumps({"epsilon": -0.9, "bump": {"type": "default"}}))
        res = run(runner, "bergman", "--input", str(path), "--k", "8,16", "--grid", "3")
        assert res.exit_code == 0 and res.stderr == ""
        assert all(v > 0 for v in json.loads(res.stdout)["theta_tv"].values())

    def test_underflowing_norm_names_its_limit(self, runner):
        res = run(runner, "bergman", "--input", str(DATA / "bump_metric.json"), "--k", "2048")
        assert res.exit_code == 4 and res.stdout == ""
        assert re.fullmatch(r"error: squared norm underflows: lowest log norm -\d+\.\d, "
                            r"below the least double's -744\.4\n", res.stderr)


class TestErrors:
    def test_malformed_json_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = runner.invoke(main, ["moment", "--input", str(bad)])
        assert res.exit_code == 2
        assert "line" in res.output or "line" in (res.stderr or "")

    def test_missing_file_exit_2(self, runner):
        res = runner.invoke(main, ["moment", "--input", "/nonexistent.json"])
        assert res.exit_code == 2

    def test_report_is_not_an_option(self, runner):
        res = runner.invoke(main, ["factorize", "--input", str(DATA / "conic_loop.json"), "--report", "csv"])
        assert res.exit_code == 2
        assert "unrecognized arguments: --report" in res.stderr

    def test_degenerate_loop_exit_3(self, runner, tmp_path):
        loop = tmp_path / "loop.json"
        # two identical rows: determinant zero
        loop.write_text(
            json.dumps(
                {
                    "size": 2,
                    "entries": [[[0, 1, 1]], [[0, 1, 1]], [[0, 1, 1]], [[0, 1, 1]]],
                }
            )
        )
        res = runner.invoke(main, ["factorize", "--input", str(loop)])
        assert res.exit_code == 3
        form = tmp_path / "form.json"
        form.write_text(json.dumps({"form": {"1,0": 1, "0,1": 1}}))
        res = runner.invoke(main, ["chow", "--input", str(form), "--loop", str(loop)])
        assert res.exit_code == 3 and "degenerate loop: " in res.stderr


@pytest.mark.parametrize(
    "command, value",
    [
        ("futaki", "foo"),
        ("futaki", "0"),
        ("futaki", "0:10"),
        ("futaki", "10:5"),
        ("futaki", "1:2:3"),
        ("futaki", ""),
        ("futaki", "1:8193"),
        ("futaki", "1:100000"),
        ("futaki", "100000"),
        ("bergman", "0"),
        ("bergman", "foo"),
        ("bergman", "0:8:double"),
        ("bergman", "-4,8,16"),
        ("bergman", "8,8,16"),
        ("bergman", "4:16:0"),
        ("bergman", "4:16:x"),
        ("bergman", "1:2:3:4"),
    ],
)
def test_malformed_levels_exit_2(runner, command, value):
    inputs = {"futaki": "conic_weights.json", "bergman": "round_metric.json"}
    res = runner.invoke(main, [command, "--input", str(DATA / inputs[command]), "--k", value])
    assert res.exit_code == 2 and res.stdout == ""
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert [line for line in res.stderr.splitlines() if line.startswith("error:")] == res.stderr.splitlines()
    assert len(res.stderr.splitlines()) == 1
    if value == "4:16:0":  # not range()'s "arg 3 must not be zero"
        assert res.stderr == "error: bad level range '4:16:0': step must be a positive integer, got 0\n"


@pytest.mark.parametrize(
    "command, value, token",
    [
        ("bergman", "1_6", "1_6"),
        ("bergman", " 8", " 8"),
        ("bergman", "\u0668", "\u0668"),
        ("bergman", "foo", "foo"),
        ("bergman", "+8,16", "+8"),
        ("bergman", "8:1_6:double", "1_6"),
        ("bergman", "4:16:\u0662", "\u0662"),
        ("futaki", "1_6", "1_6"),
        ("futaki", " 8", " 8"),
        ("futaki", "\u0668", "\u0668"),
        ("futaki", "foo", "foo"),
        ("futaki", "1:1_0", "1_0"),
    ],
)
def test_levels_read_ascii_integers_only(runner, command, value, token):
    # int() reads "1_6" as 16, " 8" and Arabic-Indic eight as 8
    inputs = {"futaki": "conic_weights.json", "bergman": "round_metric.json"}
    res = runner.invoke(main, [command, "--input", str(DATA / inputs[command]), "--k", value])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == f"error: bad level range {value!r}: expected an integer, got {token!r}\n"


@pytest.mark.parametrize("only", [" 3", "1_2", "+3", "\u0663"])
def test_verify_only_reads_ascii_integers_only(runner, only):
    res = runner.invoke(main, ["verify", "--only", only])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == f"error: argument --only: expected criterion numbers from 1..13, got {only!r}\n"


@pytest.mark.parametrize(
    "command, value, reason",
    [
        ("bergman", "-4,8,16", "levels must be a nonempty set of distinct integers in 1..8192"),
        ("futaki", "-1:3", "expected lo:hi with 1 <= lo <= hi"),
    ],
)
def test_levels_starting_with_minus_reach_the_level_parser(runner, command, value, reason):
    # argparse would take the value for an option and report a missing argument
    inputs = {"futaki": "conic_weights.json", "bergman": "round_metric.json"}
    res = runner.invoke(main, [command, "--input", str(DATA / inputs[command]), "--k", value])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == f"error: bad level range {value!r}: {reason}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["frobnicate"],
        [],
        ["factorize", "--input", "conic_loop.json", "--report", "csv"],
        ["moment"],
        ["chow", "--input", "conic_form.json"],
        ["moment", "--input", "line_cycle.json", "--order", "x"],
        ["bergman", "--input", "round_metric.json", "--grid", "x"],
        ["moment", "--input", "line_cycle.json", "--tol", "x"],
        ["factorize", "--input", "conic_loop.json", "--format", "xml"],
        ["futaki", "--input", "conic_weights.json", "--sign", "up"],
        ["moment", "--inp", "line_cycle.json"],
        ["moment", "--input", "line_cycle.json", "--tol", "nan"],
        ["moment", "--input", "line_cycle.json", "--tol", "inf"],
        ["moment", "--input", "line_cycle.json", "--tol", "0"],
        ["balance", "--input", "rnc3_distorted_cycle.json", "--tol", "nan"],
        ["balance", "--input", "rnc3_distorted_cycle.json", "--tol", "inf"],
        ["chow", "--input", "conic_form.json", "--loop", "conic_loop.json", "--tol", "nan"],
        ["chow", "--input", "conic_form.json", "--loop", "conic_loop.json", "--tol", "inf"],
        ["balance", "--input", "rnc3_distorted_cycle.json", "--max-steps", "0"],
        ["moment", "--input", "line_cycle.json", "--order", "0"],
    ],
    ids=["unknown-command", "no-command", "report", "no-input", "no-loop", "order", "grid", "tol", "format",
         "sign", "abbreviation", "moment-tol-nan", "moment-tol-inf", "moment-tol-0", "balance-tol-nan",
         "balance-tol-inf", "chow-tol-nan", "chow-tol-inf", "max-steps-0", "order-0"],
)
def test_usage_error_is_one_line(runner, args):
    res = runner.invoke(main, [str(DATA / a) if a.endswith(".json") else a for a in args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: ")


def test_help_puts_each_command_beside_its_help(runner, monkeypatch):
    # the command list comes from the unknown-command error, and each name
    # must share its line with the start of its help
    monkeypatch.setenv("COLUMNS", "80")
    names = re.findall(r"'(\w+)'", runner.invoke(main, ["nope"]).stderr.split("choose from", 1)[1])
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0 and len(names) == 7
    for name in names:
        assert re.search(rf"^    {name} +[A-Z]", res.stdout, re.M), name


def test_cli_import_loads_only_the_standard_library():
    # compared with what the bare interpreter has loaded (site and .pth files)
    code = (
        "import sys; before = set(sys.modules); import kstab.cli\n"
        "new = set(sys.modules) - before\n"
        "print(sorted({m.split('.')[0] for m in new} - set(sys.stdlib_module_names) - {'kstab'}),"
        " sorted(m for m in new if m.split('.')[0] == 'kstab'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] ['kstab', 'kstab.cli']"


# Run one command line in a fresh interpreter; report its exit code, which of
# numpy, scipy and sympy and which kstab modules it loaded, and the BLAS
# thread variables it leaves.
_LOADED = """
import json, os, sys, kstab.cli
try:
    kstab.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
heavy = sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy', 'sympy'})
kstab = sorted(m for m in sys.modules if m.split('.')[0] == 'kstab')
blas = [os.environ.get(name) for name in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')]
print(json.dumps([code, heavy + kstab, blas]), file=sys.stderr)
"""


def _loaded(argv, env=None):
    """(exit code, loaded modules, BLAS thread variables) of one command line."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, timeout=120, env=env
    )
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "args, absent",
    [
        (["factorize", "--input", "conic_loop.json"], ["numpy", "scipy", "sympy", "kstab.weights"]),
        (["futaki", "--input", "conic_weights.json", "--k", "1:10"], ["numpy", "scipy", "sympy", "kstab.laurent"]),
        (["chow", "--input", "conic_form.json", "--loop", "conic_loop.json"],
         ["numpy", "scipy", "sympy", "kstab.cycles", "kstab.quadrature"]),
        (["chow", "--input", "CUBIC", "--loop", "conic_loop.json"], ["numpy", "scipy", "sympy"]),
        (["chow", "--input", "NOTE", "--loop", "IDENTITY"], ["numpy", "scipy", "sympy"]),
        (["moment", "--input", "line_cycle.json", "--order", "48"],
         ["scipy", "sympy", "kstab.laurent", "kstab.weights"]),
        (["balance", "--input", "rnc3_distorted_cycle.json", "--format", "csv"],
         ["scipy", "sympy", "kstab.laurent", "kstab.weights"]),
        (["bergman", "--input", "bump_metric.json", "--k", "8:32:double", "--grid", "20"],
         ["scipy", "sympy", "kstab.laurent", "kstab.weights"]),
        (["verify"], ["scipy", "sympy"]),
    ],
    ids=["factorize", "futaki", "chow", "chow-cubic", "chow-note", "moment", "balance", "bergman", "verify"],
)
def test_command_leaves_out_heavy_imports(args, absent, tmp_path):
    inputs = {"CUBIC": {"form": {"3,0,0": [1, 0], "0,3,0": [1, 0], "0,0,3": [1, 0]}},
              "NOTE": {"form": {"2,0,0": 1, "0,2,0": 1, "0,0,2": 1, "1,1,0": 1}},
              "IDENTITY": {"size": 3, "entries": [[[0, 1, 1]], [], [], [], [[0, 1, 1]], [], [], [], [[0, 1, 1]]]}}
    for name, obj in inputs.items():
        (tmp_path / name).write_text(json.dumps(obj))
    argv = [str(tmp_path / a) if a in inputs else str(DATA / a) if a.endswith(".json") else a for a in args]
    code, loaded, _ = _loaded(argv)
    assert code == 0
    assert "kstab.cli" in loaded and not set(loaded) & set(absent)


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["nope"], 2)], ids=["help", "usage-error"])
def test_help_and_usage_error_load_no_library_module(args, code):
    assert _loaded(args)[:2] == [code, ["kstab", "kstab.cli"]]


@pytest.mark.parametrize(
    "preset, expected",
    [({}, ["1", "1"]), ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}, ["2", "2"]),
     ({"OMP_NUM_THREADS": "2"}, [None, "2"])],
    ids=["unset", "preset", "omp-only"],
)
def test_blas_runs_on_one_thread_unless_set(preset, expected):
    # OpenBLAS reads OMP_NUM_THREADS only when OPENBLAS_NUM_THREADS is unset
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    code, loaded, blas = _loaded(["moment", "--input", str(DATA / "line_cycle.json")], env | preset)
    assert code == 0 and "numpy" in loaded
    assert blas == expected


@pytest.mark.parametrize(
    "args",
    [
        ["futaki", "--input", "conic_weights.json", "--k", "1:3"],
        ["moment", "--input", "line_cycle.json"],
        ["chow", "--input", "conic_form.json", "--loop", "conic_loop.json"],
        ["factorize", "--input", "conic_loop.json"],
    ],
    ids=["futaki", "moment", "chow", "factorize"],
)
def test_flat_csv_has_two_columns(runner, args):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in args]
    rep = json.loads(run(runner, *argv).output)
    res = run(runner, *argv, "--format", "csv")
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    assert all(len(row) == 2 for row in rows)
    assert rows[0] == ["key", "value"]
    assert [key for key, _ in rows[1:]] == sorted(rep)
    for key, value in rows[1:]:
        assert value == rep[key] if isinstance(rep[key], str) else json.loads(value) == rep[key]


def test_row_csv_is_unquoted(runner):
    res = run(runner, "balance", "--input", str(DATA / "rnc3_distorted_cycle.json"), "--format", "csv")
    lines = res.output.splitlines()
    assert [",".join(row) for row in csv.reader(lines)] == lines


# Leaves stay small: an exponent or a degree read from the input sets the
# size of the exact computation, and this test is about exit codes.
_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=3)
    | st.floats(-10, 10) | st.sampled_from([float("nan"), float("inf"), -float("inf")])
)
_JSON = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _put(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _put(doc[path[0]], path[1:], value)
    return out


@st.composite
def _malformed(draw, name):
    """A shipped input with one node replaced, any small JSON value, or raw text."""
    valid = json.loads((DATA / name).read_text())
    kind = draw(st.sampled_from(["mutate", "mutate", "mutate", "json", "text"]))
    if kind == "text":
        return draw(st.text(max_size=8))
    if kind == "json":
        return json.dumps(draw(_JSON))
    path = draw(st.sampled_from(list(_paths(valid))))
    return json.dumps(_put(valid, path, draw(_JSON)))


_COMMANDS = {
    "factorize": (["conic_loop.json"], {}),
    "futaki": (["conic_weights.json"], {"--k": ["1:3", "0", "3:1", "1:10"], "--sign": ["calibrated", "flipped"]}),
    "chow": (["conic_form.json", "conic_loop.json"],
             {"--sign": ["calibrated", "flipped"], "--order": ["-1", "0", "1", "48"], "--tol": ["-1", "1e-6"]}),
    "moment": (["line_cycle.json"], {"--order": ["-1", "0", "1", "48"], "--tol": ["-1", "0", "1e-8"]}),
    "balance": (["rnc3_distorted_cycle.json"],
                {"--max-steps": ["-1", "0", "1", "5"], "--order": ["0", "1", "32"], "--tol": ["0", "1e-8"]}),
    "bergman": (["bump_metric.json"], {"--k": ["4,8", "0", "8:4", "4:16:double"], "--grid": ["-1", "0", "3"]}),
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=25, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_inputs_exit_cleanly(runner, command, data):
    files, options = _COMMANDS[command]
    texts = [data.draw(_malformed(name)) for name in files]
    if len(texts) == 2 and data.draw(st.booleans()):
        keep = data.draw(st.sampled_from([0, 1]))
        texts[keep] = (DATA / files[keep]).read_text()
    args = [command]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            paths.append(Path(tmp) / f"in{i}.json")
            paths[-1].write_text(text)
        args += ["--input", str(paths[0])]
        if command == "chow":
            args += ["--loop", str(paths[1])]
        for opt, values in options.items():
            if data.draw(st.booleans()):
                args += [opt, data.draw(st.sampled_from(values))]
        _assert_clean_exit(runner.invoke(main, args))


def _delete(doc, path):
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if len(path) == 1:
        del out[path[0]]
    else:
        out[path[0]] = _delete(doc[path[0]], path[1:])
    return out


@st.composite
def _perturbed(draw, name):
    """The shipped input ``name`` with one leaf replaced by a float, a bool,
    a string, NaN or +-1e308, or one key or list element deleted."""
    doc = json.loads((DATA / name).read_text())
    paths = list(_paths(doc))[1:]
    if draw(st.booleans()):
        return _delete(doc, draw(st.sampled_from(paths)))
    leaf = draw(st.sampled_from([p for p in paths if not isinstance(_get(doc, p), (dict, list))]))
    value = draw(st.floats(allow_nan=False, allow_infinity=False) | st.booleans() | st.text(max_size=12)
                 | st.sampled_from([float("nan"), 1e308, -1e308]))
    return _put(doc, leaf, value)


def _get(doc, path):
    return _get(doc[path[0]], path[1:]) if path else doc


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_perturbed("conic_loop.json"))
def test_perturbed_loop_is_read_or_refused(runner, doc):
    _assert_read_or_refused(runner, ["factorize"], "conic_loop.json", doc)


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_perturbed("conic_weights.json"))
def test_perturbed_weight_system_is_read_or_refused(runner, doc):
    _assert_read_or_refused(runner, ["futaki"], "conic_weights.json", doc)


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_perturbed("conic_form.json"))
def test_perturbed_form_is_read_or_refused(runner, doc):
    loop = str(DATA / "conic_loop.json")
    _assert_read_or_refused(runner, ["chow", "--loop", loop], "conic_form.json", doc, same_report=False)


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_perturbed("line_cycle.json"))
def test_perturbed_cycle_is_read_or_refused(runner, doc):
    _assert_read_or_refused(runner, ["moment"], "line_cycle.json", doc, same_report=False)


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_perturbed("bump_metric.json"))
def test_perturbed_metric_is_read_or_refused(runner, doc):
    args = ["bergman", "--k", "8,16,32", "--grid", "20"]
    _assert_read_or_refused(runner, args, "bump_metric.json", doc, same_report=False)


def _assert_read_or_refused(runner, args, name, doc, same_report=True):
    """``args`` with ``--input`` ``doc`` prints the report of the shipped
    input ``name`` (with ``same_report=False``, any JSON report: a float
    leaf is valid input for some readers) or exits 2, 3 or 4 with one
    ``error:`` line and no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps(doc))
        res = run(runner, *args, "--input", str(path))
    assert "Traceback" not in res.stdout + res.stderr
    if res.exit_code == 0 and same_report:
        assert res.stdout == run(runner, *args, "--input", str(DATA / name)).stdout and res.stderr == ""
    elif res.exit_code == 0:
        assert isinstance(json.loads(res.stdout), dict)
    else:
        assert res.exit_code in (2, 3, 4) and res.stdout == ""
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: ")


_DEGREE_0_CYCLE = {"ambient": 2, "components": [{"coeffs": [[[1, 0], [0, 0]], [[0, 0]], [[1, 0]]]}]}
_DENOMINATOR_0_LOOP = {"size": 1, "entries": [[[0, 1, 0]]]}


@pytest.mark.parametrize(
    "command, inputs",
    [
        ("chow", {"--input": [1, 2], "--loop": "conic_loop.json"}),
        ("chow", {"--input": "conic_form.json", "--loop": _DENOMINATOR_0_LOOP}),
        ("factorize", {"--input": _DENOMINATOR_0_LOOP}),
        ("bergman", {"--input": [1, 2]}),
        ("moment", {"--input": _DEGREE_0_CYCLE}),
        ("balance", {"--input": _DEGREE_0_CYCLE}),
    ],
)
def test_malformed_input_exit_2(runner, tmp_path, command, inputs):
    args = [command]
    for opt, value in inputs.items():
        path = DATA / value if isinstance(value, str) else tmp_path / f"{opt[2:]}.json"
        if not isinstance(value, str):
            path.write_text(json.dumps(value))
        args += [opt, str(path)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    _assert_clean_exit(res)


def _with(name, path, value):
    return _put(json.loads((DATA / name).read_text()), path, value)


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("factorize", {"size": 1, "entries": [[[1, 1.5, 1]]]}, "numerator"),
        ("factorize", {"size": 1, "entries": [[[0.5, 1, 1]]]}, "exponent"),
        ("factorize", {"size": 1, "entries": [[[1, 1, True]]]}, "denominator"),
        ("factorize", _with("conic_loop.json", ("size",), 3.0), "size"),
        ("futaki", _with("conic_weights.json", ("generators",), [0, 0.5]), "generator weight"),
        ("futaki", _with("conic_weights.json", ("dim",), "1"), "dim"),
        ("futaki", _with("conic_weights.json", ("geometry", "degree"), 2.0), "degree"),
        ("futaki", _with("conic_weights.json", ("geometry", "initial_weight"), True), "initial_weight"),
        ("moment", _with("line_cycle.json", ("components", 0, "multiplicity"), 1.5), "multiplicity"),
        ("moment", _with("line_cycle.json", ("ambient",), 2.0), "ambient"),
    ],
)
def test_non_integer_field_exit_2(runner, tmp_path, command, doc, field):
    # int() would truncate each of these to a valid input and exit 0
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, [command, "--input", str(path)])
    assert res.exit_code == 2
    _assert_clean_exit(res)
    assert f"{field} must be a JSON integer" in res.stderr


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("futaki", {"generators": [0, 1], "geometry": {"type": "projective"}},
         "bad weight system: missing field 'dim'"),
        ("moment", {"ambient": 2}, "bad cycle input: missing field 'components'"),
        ("futaki", _with("conic_weights.json", ("generators",), 5),
         "bad weight system: generators must be a JSON list, got 5"),
        ("factorize", {"size": 2, "entries": 5}, "bad loop input: entries must be a JSON list, got 5"),
        ("moment", {"ambient": 2, "components": 5}, "bad cycle input: components must be a JSON list, got 5"),
        ("bergman", _with("bump_metric.json", ("bump", "num"), 5),
         "bad metric input: bump num must be a JSON list, got 5"),
        ("moment", {"ambient": 2, "components": [5]}, "bad cycle input: components[0] must be a JSON object, got 5"),
        ("moment", {"ambient": 2, "components": [{"coeffs": 5}]},
         "bad cycle input: components[0] coeffs must be a JSON list, got 5"),
        ("moment", {"ambient": 2, "components": [{"coeffs": [[1, 0], [0, 1]]}]},
         "bad cycle input: components[0] coeffs must list [re, im] pairs per coordinate"),
        ("balance", {"ambient": 2, "components": [{"coeffs": [[[1, 0]], [[0, 0]], [[0, 0], [1, 0]]]}, {"coeffs": [5]}]},
         "bad cycle input: components[1] coeffs must be a JSON list, got 5"),
        # int() would read "1_0" as 10, and name no key for "a"
        ("chow", {"form": {"a,b,c": 1, "0,2,0": -1}},
         "bad form input: form monomial key must be comma-separated integers, got 'a,b,c'"),
        ("chow", {"form": {"": 1}}, "bad form input: form monomial key must be comma-separated integers, got ''"),
        ("chow", {"form": {"1_0,0,1": 1}},
         "bad form input: form monomial key must be comma-separated integers, got '1_0,0,1'"),
        ("chow", _with("conic_form.json", ("form", "1,0,1"), {"x": 1}),
         "bad form input: form Laurent exponent key must be an integer, got 'x'"),
    ],
)
def test_missing_or_non_list_field_names_itself(runner, tmp_path, command, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    loop = ["--loop", str(DATA / "conic_loop.json")] if command == "chow" else []
    res = runner.invoke(main, [command, "--input", str(path), *loop])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("bergman", _with("bump_metric.json", ("epsilon",), True), "epsilon"),
        ("bergman", _with("bump_metric.json", ("epsilon",), "0.1"), "epsilon"),
        ("bergman", _with("bump_metric.json", ("bump", "num", 1), True), "bump coefficient"),
        ("bergman", _with("bump_metric.json", ("bump", "den", 0), False), "bump coefficient"),
        ("moment", _with("line_cycle.json", ("components", 0, "coeffs", 0, 0), [True, 0]), "cycle coefficient"),
        ("chow", _with("conic_form.json", ("form", "1,0,1"), [True, 0]), "form coefficient"),
        ("chow", _with("conic_form.json", ("form", "1,0,1"), True), "form coefficient"),
        ("chow", _with("conic_form.json", ("form", "1,0,1"), {"0": True}), "form coefficient"),
    ],
)
def test_non_number_field_exit_2(runner, tmp_path, command, doc, field):
    # float() and Fraction() read true as 1 and the string "0.1" as 0.1
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    loop = ["--loop", str(DATA / "conic_loop.json")] if command == "chow" else []
    res = runner.invoke(main, [command, "--input", str(path), *loop])
    assert res.exit_code == 2
    _assert_clean_exit(res)
    assert f"{field} must be a finite JSON number" in res.stderr


@pytest.mark.parametrize(
    "bump, message",
    [
        (5, '"bump" must be a JSON object'),
        ({"type": "spline"}, "unsupported bump type 'spline'"),
        ({"type": "rational", "den": [1, 2, 1]}, "rational bump needs numerator coefficients"),
    ],
)
def test_unreadable_bump_exit_2(runner, tmp_path, bump, message):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"epsilon": 0.1, "bump": bump}))
    res = run(runner, "bergman", "--input", str(path))
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == f"error: bad metric input: {message}\n"


def test_short_loop_term_names_its_entry(runner, tmp_path):
    doc = _with("conic_loop.json", ("entries", 1), [[0, 1]])
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    res = run(runner, "factorize", "--input", str(path))
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == "error: bad loop input: loop entry (0, 1): a term is [exp, num, den], got [[0, 1]]\n"


def test_exact_strings_in_bump_and_form(runner, tmp_path):
    # "p/q" strings are read as exact rationals, so they give the integers' bits
    for command, name, path, value in [
        ("bergman", "bump_metric.json", ("bump",), {"type": "rational", "num": ["0", "2/2"], "den": ["1", "2", "1"]}),
        ("chow", "conic_form.json", ("form", "0,2,0"), ["-3/3", "0"]),
    ]:
        edited = tmp_path / name
        edited.write_text(json.dumps(_with(name, path, value)))
        loop = ["--loop", str(DATA / "conic_loop.json")] if command == "chow" else []
        got, want = (runner.invoke(main, [command, "--input", str(p), *loop]) for p in (edited, DATA / name))
        assert got.exit_code == want.exit_code == 0
        assert got.stdout == want.stdout


def test_overflowing_bump_is_one_line(runner, tmp_path):
    # degree 30 over 41: the certificate's Horner sums overflow at large s
    rng = np.random.default_rng(11)
    num, den = [0, *rng.integers(1, 10, 30).tolist()], [1, *rng.integers(1, 10, 41).tolist()]
    path = tmp_path / "metric.json"
    path.write_text(json.dumps({"epsilon": 0.01, "bump": {"type": "rational", "num": num, "den": den}}))
    res = runner.invoke(main, ["bergman", "--input", str(path)])
    assert res.exit_code == 2
    _assert_clean_exit(res)
    assert "overflowed in floating point" in res.stderr


def _run_loop(capped_python, tmp_path, command, entries):
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"size": 3, "entries": entries}))
    args = [command, "--input", str(loop)]
    if command == "chow":
        args = [command, "--input", str(DATA / "conic_form.json"), "--loop", str(loop)]
    return capped_python(f"import sys\nfrom kstab.cli import main\nsys.argv[1:] = {args!r}\nmain()\n")


@pytest.mark.parametrize("command", ["factorize", "chow"])
def test_wide_loop_entry_exit_2(capped_python, tmp_path, command):
    # dense storage of an entry 1 + t^(10^9) would need gigabytes
    entries = [[[0, 1, 1], [10**9, 1, 1]], [], [], [], [[0, 1, 1]], [], [], [], [[0, 1, 1]]]
    proc = _run_loop(capped_python, tmp_path, command, entries)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "error: bad loop input: exponents 0..1000000000 span more than 2^20 = 1048576\n"
    )


@pytest.mark.parametrize("command", ["factorize", "chow"])
def test_wide_loop_exit_2(capped_python, tmp_path, command):
    # diag(1, 1, t^(2^20 + 1)): each entry is one term, but the factorization
    # window would run over the whole loop's spread
    entries = [[[0, 1, 1]], [], [], [], [[0, 1, 1]], [], [], [], [[2**20 + 1, 1, 1]]]
    proc = _run_loop(capped_python, tmp_path, command, entries)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "error: bad loop input: loop exponents 0..1048577 span more than 2^20 = 1048576\n"
    )


@pytest.mark.parametrize("order", ["513", "20000"])
@pytest.mark.parametrize(
    "args",
    [
        ["moment", "--input", "line_cycle.json"],
        ["balance", "--input", "rnc3_distorted_cycle.json"],
        ["chow", "--input", "conic_form.json", "--loop", "conic_loop.json"],
    ],
    ids=["moment", "balance", "chow"],
)
def test_order_above_512_exit_2(capped_python, args, order):
    # the Gauss-Legendre rule of order n needs a dense n x n matrix: at
    # order 20000, 3.2 GB
    argv = [str(DATA / a) if a.endswith(".json") else a for a in args] + ["--order", order]
    proc = capped_python(f"import sys\nfrom kstab.cli import main\nsys.argv[1:] = {argv!r}\nmain()\n")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("error:") == 1 and "1..512" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["factorize", "--input", "conic_loop.json"],
        ["chow", "--input", "conic_form.json", "--loop", "conic_loop.json"],
    ],
    ids=["factorize", "chow"],
)
def test_failed_factorization_check_exit_3(runner, monkeypatch, args):
    from kstab import laurent

    monkeypatch.setattr(laurent, "_assemble", lambda *a: None)
    res = runner.invoke(main, [str(DATA / a) if a.endswith(".json") else a for a in args])
    assert res.exit_code == 3
    assert res.stderr == "error: loop factorization failed its exact check\n"
    _assert_clean_exit(res)


def test_failed_det_check_exit_3(runner, monkeypatch, tmp_path):
    # factorize runs the exact determinant only on a loop whose determinant
    # vanishes at t0 modulo the prime, here two equal rows; a wrong Bareiss
    # determinant fails its check at that point
    from kstab import laurent

    bareiss = laurent._bareiss
    monkeypatch.setattr(laurent, "_bareiss", lambda rows: bareiss(rows) + laurent.LaurentPoly.one())
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"size": 2, "entries": [[[0, 1, 1]]] * 4}))
    res = runner.invoke(main, ["factorize", "--input", str(loop)])
    assert res.exit_code == 3
    assert res.stderr == "error: determinant failed its check modulo 2^61 - 1\n"
    _assert_clean_exit(res)


@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(only=st.text(alphabet="0123456789,- x", min_size=1, max_size=6))
def test_verify_only_malformed_exit_2(runner, only):
    # a list of valid criterion numbers (int() allows padding) would run the suite
    try:
        numbers = [int(p) for p in only.split(",")]
    except ValueError:
        numbers = [0]
    assume(not all(1 <= n <= 13 for n in numbers))
    res = runner.invoke(main, ["verify", "--only", only])
    assert res.exit_code == 2
    _assert_clean_exit(res)


@pytest.mark.parametrize(
    "args",
    [
        ["moment", "--input", "DIR"],
        ["moment", "--input", "LATIN1"],
        ["factorize", "--input", "DEEP"],
        ["moment", "--input", "line_cycle.json", "--out", "MISSING"],
        ["futaki", "--input", "conic_weights.json", "--out", "DIR"],
        ["verify", "--only", "3", "--out", "MISSING"],
    ],
    ids=["input-directory", "input-not-utf8", "input-too-deep", "out-missing-directory", "out-directory",
         "verify-out-missing-directory"],
)
def test_unreadable_input_or_unwritable_out_exit_2(runner, tmp_path, args):
    (tmp_path / "latin1.json").write_bytes(b'{"ambient": "\xe9"}')
    (tmp_path / "deep.json").write_text("[" * 100000)
    paths = {"DIR": tmp_path, "LATIN1": tmp_path / "latin1.json", "DEEP": tmp_path / "deep.json",
             "MISSING": tmp_path / "missing" / "out.json"}
    argv = [str(paths[a]) if a in paths else str(DATA / a) if a.endswith(".json") else a for a in args]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2 and res.stdout == ""
    _assert_clean_exit(res)


@pytest.mark.parametrize(
    "args, target, error, code",
    [
        (["chow", "--input", "conic_form.json", "--loop", "SHEAR"], "kstab.chow.check_chow_inequality",
         QuadratureError, 4),
        (["bergman", "--input", "bump_metric.json", "--k", "4", "--grid", "3"], "kstab.bergman.theta_total_variation",
         QuadratureError, 4),
        (["moment", "--input", "line_cycle.json"], "kstab.cycles.moment_matrix", QuadratureError, 4),
        (["factorize", "--input", "conic_loop.json"], "kstab.laurent.factorize", FactorizationError, 3),
        (["futaki", "--input", "conic_weights.json"], "kstab.weights.weight_report", ValueError, 3),
    ],
    ids=["chow", "bergman", "moment", "factorize", "futaki"],
)
def test_library_error_exit_code(runner, monkeypatch, tmp_path, args, target, error, code):
    # main maps each library error to its exit code in one place; chow
    # reaches the quadrature only where its pairing is not exact
    def fail(*args, **kwargs):
        raise error(f"{target} failed on purpose")

    (tmp_path / "shear.json").write_text(json.dumps(SHEAR_LOOP))
    monkeypatch.setattr(target, fail)
    res = runner.invoke(main, [str(tmp_path / "shear.json") if a == "SHEAR" else str(DATA / a) if a.endswith(".json")
                               else a for a in args])
    assert res.exit_code == code
    assert res.stdout == "" and res.stderr == f"error: {target} failed on purpose\n"


def test_unmapped_error_propagates(runner, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("not a library error")

    monkeypatch.setattr("kstab.weights.weight_report", fail)
    with pytest.raises(RuntimeError, match="not a library error"):
        runner.invoke(main, ["futaki", "--input", str(DATA / "conic_weights.json")])


def _assert_clean_exit(res):
    assert res.exit_code in {0, 2, 3, 4}, res.exception
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output + res.stderr
    if res.exit_code in (2, 3):
        assert [line for line in res.stderr.splitlines() if line.startswith("error:")] == res.stderr.splitlines()
        assert len(res.stderr.splitlines()) == 1


class TestVerifySubset:
    def test_verify_fast_criteria(self, runner):
        res = run(runner, "verify", "--only", "3,4,7")
        assert "PASS" in res.output
        assert res.exit_code == 0


def test_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "kstab.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "factorize" in proc.stdout


def test_balance_order_512_under_memory_cap(capped_python, tmp_path):
    # balance evaluates charts in blocks of nodes, as moment does, so memory
    # stays flat in the order: the degree-64 image cycle (closed form) and a
    # dense degree-8 curve in P^8 (kernel blocks) both fit in 1 GiB at order 512
    from kstab.bergman import RadialMetric, image_cycle

    rng = np.random.default_rng(8)
    dense = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    runs = [
        (image_cycle(RadialMetric(0.1), 64).components[0].coeffs, [], 0),
        (dense, ["--max-steps", "1"], 4),
    ]
    for coeffs, options, code in runs:
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"ambient": len(coeffs) - 1, "components": [
            {"coeffs": [[[z.real, z.imag] for z in row] for row in coeffs]}]}))
        argv = ["balance", "--input", str(path), "--order", "512", *options]
        proc = capped_python(f"import sys\nfrom kstab.cli import main\nsys.argv[1:] = {argv!r}\nmain()\n")
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == "" and json.loads(proc.stdout)["final_residual"] <= 1e-8
        else:
            assert proc.stderr.startswith("non-convergence after 1 steps") and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("option", [["--k", "100000000"], ["--k", "1:100000000"], ["--k", "1:1000000000000"],
                                    ["--grid", "100000000"]],
                         ids=["level", "range", "huge-range", "grid"])
def test_bergman_bounds_exit_2(capped_python, option):
    # gram at level 10^8 asked for 191 GiB, and rho on 10^8 grid points for 763 MiB
    argv = ["bergman", "--input", str(DATA / "bump_metric.json")] + option
    proc = capped_python(f"import sys\nfrom kstab.cli import main\nsys.argv[1:] = {argv!r}\nmain()\n")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("error:") == 1 and ("1..8192" in proc.stderr or "1..4096" in proc.stderr)
    assert proc.stdout == ""
