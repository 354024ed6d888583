"""Every shipped example input parses and runs through its command."""

import json
import sys
from pathlib import Path

import pytest

from kstab.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"

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
def test_input_runs(runner, fname, args):
    res = runner.invoke(main, args + ["--input", str(DATA / fname)])
    assert res.exit_code == 0, res.output


def test_conic_form_with_loop(runner):
    res = runner.invoke(
        main,
        [
            "chow",
            "--input",
            str(DATA / "conic_form.json"),
            "--loop",
            str(DATA / "conic_loop.json"),
        ],
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["chow_weight"] == "1/12"


def test_crossing_lines_reports_nonconvergence(runner):
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
def test_double_encoded_input_exits_2(runner, tmp_path, fname):
    """A file whose top level is a JSON string holding an input is not one."""
    path = tmp_path / fname
    path.write_text(json.dumps((DATA / fname).read_text()))
    res = runner.invoke(main, READERS[fname] + [str(path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's generator and oracle modules, imported from ``bench/``
    as they are, without writing bytecode there."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import gen
    import oracle

    return gen, oracle


@pytest.mark.parametrize("index", [0, 1, 2, 3, 4], ids=["factorize", "futaki", "chow", "moment-line", "moment-rnc3"])
def test_shipped_command_matches_its_benchmark_reference(runner, monkeypatch, bench, index):
    # an output change that the benchmark would refuse fails here first
    gen, oracle = bench
    command, argv = gen.SHIPPED[index]
    case = {"id": f"{index:02d}-{command}", "command": command, "argv": argv}
    monkeypatch.chdir(ROOT)
    res = runner.invoke(main, argv)
    assert res.exit_code == 0, res.stderr
    refs = json.loads((ROOT / "bench" / "refs" / "cli_shipped.json").read_text())
    summary = oracle.cli_summary(case, res.stdout)
    assert oracle.cli_invariants(case, res.stdout) + oracle.compare(summary, refs[case["id"]]) == []
