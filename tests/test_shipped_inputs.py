"""Every shipped example input parses and runs through its command."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from kstab.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"

RUNS = [
    ("conic_loop.json", ["factorize"]),
    ("conic_weights.json", ["futaki"]),
    ("line_cycle.json", ["moment"]),
    ("rnc3_cycle.json", ["moment"]),
    ("rnc3_distorted_cycle.json", ["balance", "--max-steps", "200"]),
    ("round_metric.json", ["bergman", "--k", "4,8,16", "--grid", "6"]),
    ("bump_metric.json", ["bergman", "--k", "4,8,16", "--grid", "6"]),
]


@pytest.mark.parametrize("fname,args", RUNS, ids=[r[0] for r in RUNS])
def test_input_runs(fname, args):
    runner = CliRunner()
    res = runner.invoke(
        main, args + ["--input", str(DATA / fname)], catch_exceptions=False
    )
    assert res.exit_code == 0, res.output


def test_conic_form_with_loop():
    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "chow",
            "--input",
            str(DATA / "conic_form.json"),
            "--loop",
            str(DATA / "conic_loop.json"),
        ],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["chow_weight"] == "1/12"


def test_crossing_lines_reports_nonconvergence():
    runner = CliRunner()
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
    assert res.exit_code == 4  # reported, with the residual trace emitted


# The command line each shipped input is read by, ending at its option.
READERS = {
    "bump_metric.json": ["bergman", "--input"],
    "conic_form.json": ["chow", "--loop", str(DATA / "conic_loop.json"), "--input"],
    "conic_loop.json": ["factorize", "--input"],
    "conic_weights.json": ["futaki", "--input"],
    "crossing_lines_cycle.json": ["balance", "--input"],
    "line_cycle.json": ["moment", "--input"],
    "rnc3_cycle.json": ["moment", "--input"],
    "rnc3_distorted_cycle.json": ["balance", "--input"],
    "round_metric.json": ["bergman", "--input"],
}


@pytest.mark.parametrize("fname", sorted(p.name for p in DATA.glob("*.json")))
def test_double_encoded_input_exits_2(tmp_path, fname):
    """A file whose top level is a JSON string holding an input is not one."""
    path = tmp_path / fname
    path.write_text(json.dumps((DATA / fname).read_text()))
    res = CliRunner().invoke(main, READERS[fname] + [str(path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
