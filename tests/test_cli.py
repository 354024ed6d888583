"""Command line interface: schemas, determinism, exit codes."""

import csv
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kstab.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"


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

    def test_vanishing_hilbert_level_is_null(self, runner, tmp_path):
        # plane quintic: N(k) + 1 = 5k - 5 vanishes at k = 1
        path = tmp_path / "quintic.json"
        path.write_text(json.dumps({"dim": 1, "generators": [0, 1, 2], "geometry": {
            "type": "hypersurface", "degree": 5, "initial_weight": 0}}))
        res = run(runner, "futaki", "--input", str(path), "--k", "1:3")
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["chow"] == {"1": None, "2": "0/1", "3": "3/2"}
        assert "k = 1" in rep["note"]
        conic = json.loads(run(runner, "futaki", "--input", str(DATA / "conic_weights.json")).output)
        assert "note" not in conic

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

    def test_crossing_lines_break_down(self, runner):
        res = runner.invoke(main, ["balance", "--input", str(DATA / "crossing_lines_cycle.json")])
        assert res.exit_code == 4
        rep = json.loads(res.stdout)
        # quadrature fails along the degenerating orbit: the mass leaves 2
        assert not rep["converged"] and rep["steps"] == len(rep["residuals"]) - 1
        assert rep["note"].startswith("iteration broke down: cycle mass ")
        assert rep["note"].endswith(" does not match degree 2")


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
    ],
    ids=["unknown-command", "no-command", "report", "no-input", "no-loop", "order", "grid", "tol", "format",
         "sign", "abbreviation"],
)
def test_usage_error_is_one_line(runner, args):
    res = runner.invoke(main, [str(DATA / a) if a.endswith(".json") else a for a in args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error: ")


def test_cli_import_loads_only_the_standard_library():
    # compared with what the bare interpreter has loaded (site and .pth files)
    code = (
        "import sys; before = set(sys.modules); import kstab.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'kstab'}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_out_sympy():
    code = "import sys, kstab.cli; print('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Run one command in a fresh interpreter; report its exit code and which of
# numpy, scipy and sympy it loaded.
_LOADED = """
import json, sys, kstab.cli
try:
    kstab.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
heavy = sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy', 'sympy'})
print(json.dumps([code, heavy]), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "args, absent",
    [
        (["factorize", "--input", "conic_loop.json"], ["numpy", "scipy", "sympy"]),
        (["futaki", "--input", "conic_weights.json", "--k", "1:10"], ["numpy", "scipy", "sympy"]),
        (["chow", "--input", "conic_form.json", "--loop", "conic_loop.json"], ["scipy", "sympy"]),
        (["chow", "--input", "CUBIC", "--loop", "conic_loop.json"], ["numpy", "scipy", "sympy"]),
        (["moment", "--input", "line_cycle.json", "--order", "48"], ["scipy", "sympy"]),
        (["balance", "--input", "rnc3_distorted_cycle.json", "--format", "csv"], ["scipy", "sympy"]),
        (["bergman", "--input", "bump_metric.json", "--k", "8:32:double", "--grid", "20"], ["scipy", "sympy"]),
        (["verify"], ["scipy", "sympy"]),
    ],
    ids=["factorize", "futaki", "chow", "chow-cubic", "moment", "balance", "bergman", "verify"],
)
def test_command_leaves_out_heavy_imports(args, absent, tmp_path):
    cubic = tmp_path / "cubic.json"
    cubic.write_text(json.dumps({"form": {"3,0,0": [1, 0], "0,3,0": [1, 0], "0,0,3": [1, 0]}}))
    argv = [str(cubic) if a == "CUBIC" else str(DATA / a) if a.endswith(".json") else a for a in args]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, *argv], capture_output=True, text=True, timeout=120
    )
    code, heavy = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    assert not set(heavy) & set(absent)


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


def test_balance_kernel_bound_exit_2(capped_python, tmp_path):
    # the degree-64 image cycle at order 512 needs 2.7e8 complex kernel
    # entries (4.4 GB); at the default order 32 it stays under the bound
    from kstab.bergman import RadialMetric, image_cycle
    from kstab.cycles import balance_iterate

    cycle = image_cycle(RadialMetric(0.1), 64)
    balance_iterate(cycle, max_steps=1)
    path = tmp_path / "image64.json"
    path.write_text(json.dumps({"ambient": cycle.ambient_dim, "components": [
        {"coeffs": [[[z.real, z.imag] for z in row] for row in c.coeffs], "multiplicity": c.multiplicity}
        for c in cycle.components]}))
    argv = ["balance", "--input", str(path), "--order", "512"]
    proc = capped_python(f"import sys\nfrom kstab.cli import main\nsys.argv[1:] = {argv!r}\nmain()\n")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("error:") == 1 and "2^25" in proc.stderr
    assert proc.stdout == ""


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
