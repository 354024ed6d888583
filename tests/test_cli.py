"""Command line interface: schemas, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from kstab.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


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


class TestMomentCommand:
    def test_line(self, runner):
        res = run(runner, "moment", "--input", str(DATA / "line_cycle.json"))
        rep = json.loads(res.output)
        diag = [rep["matrix_re"][i][i] for i in range(3)]
        assert abs(diag[0] - 1 / 6) < 1e-10
        assert abs(diag[1] + 1 / 3) < 1e-10


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

    def test_one_gram_pass_per_level(self, runner, monkeypatch):
        import kstab.bergman as bg

        calls = []
        real = bg.gram

        def counting(metric, k, *args, **kwargs):
            calls.append(k)
            return real(metric, k, *args, **kwargs)

        monkeypatch.setattr(bg, "gram", counting)
        res = run(
            runner, "bergman", "--input", str(DATA / "bump_metric.json"),
            "--k", "4:16:double", "--grid", "3",
        )
        assert res.exit_code == 0
        assert sorted(calls) == [4, 8, 16]


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


@pytest.mark.parametrize(
    "command, value",
    [
        ("futaki", "foo"),
        ("futaki", "0"),
        ("futaki", "0:10"),
        ("futaki", "10:5"),
        ("futaki", "1:2:3"),
        ("futaki", ""),
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
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert [line for line in res.stderr.splitlines() if line.startswith("error:")] == res.stderr.splitlines()
    assert len(res.stderr.splitlines()) == 1


def test_cli_import_leaves_out_sympy():
    code = "import sys, kstab.cli; print('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
