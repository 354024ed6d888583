"""kstab benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {cli_shipped,exact_dense,numeric_levels}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from any directory; the checkout is the parent of this file's directory
and ``kstab`` is imported from its ``src/``.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
with ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  The lines before it give every metric with its unit
and the run environment; the full result, per pass, is also written to
``bench/_work/results/``.

Workloads (one client, one case at a time, in a fixed order):

* ``cli_shipped``: every README command on the shipped ``data/`` inputs,
  each as a fresh ``kstab`` process, then ``kstab verify``.  Interpreter
  start and ``import kstab`` dominate, so set-up, parse and emit show here.
* ``exact_dense``: seeded dense loops, forms and weight systems for
  ``factorize``, ``chow`` and ``futaki`` (the exact ``Fraction`` layers).
* ``numeric_levels``: the call sequence of ``kstab bergman`` at
  k = 16 .. 512 on seeded metrics, plus ``moment`` and ``balance`` on
  their image cycles (the numpy layers).

Each seeded workload also runs the other family at a small size, so that
every per-command total exists on every workload.  A pass is one run of all
timed cases in a fresh worker process (for ``cli_shipped``: one process per
command).  The number of passes depends only on the workload and
``--seconds`` (``--seconds`` over the workload's nominal pass time), so two
commits compared with the same ``--seconds`` get the same number of
samples; a run that would overrun its hard time limit stops early.

The whole run stays on one CPU, and a fixed calibration (``calibrate.py``:
exact arithmetic in a worker, a reference process launch on ``cli_shipped``
and for set-up) runs before every timed case and after the last one.  Each
case's time is scaled to the reference speed by the calibrations around it,
which cancels the changing load of the host the VM runs on.  A reported time is the sum,
over its cases, of each case's median scaled time over the passes.
``setup_s`` is the median of several fresh launches that stop once
``kstab`` is imported and the inputs are read, each scaled in the same way.

Every output is checked against references recorded at the seed commit
(``bench/refs/``) and against reference-free invariants; a case without a
reference fails.  After the
timed cases of the first pass untimed probes run the known defects of the
Gram quadrature (k = 2048 fails outright; at k = 1024 the densities miss
the c09 normalization identity); they count in ``failed_ratio`` (cases
that failed in any pass over cases attempted, each counted once, probes
included) but not in ``attempted`` and ``failed``, which count the timed
cases of every pass.

With ``--trace 1`` untraced and traced passes alternate; the per-layer
metrics come from the traced pass with the median wall time, and
``trace.overhead_s`` is ``wall_s`` of the traced passes minus ``wall_s`` of
the untraced ones (both scaled).  Other per-layer times are unscaled.  In
every traced pass the self times of all layers, plus ``cli.import_s`` and
``cli.self_s`` on ``cli_shipped``, plus ``trace.unattributed_s`` sum to
``trace.wall_s``.

Worker processes run with one BLAS thread and ``KSTAB_THREADS=1``, a 2 GiB
address-space cap, hard time limits and, where the kernel allows it, no
address-space layout randomization.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from worker import CASE_TIMEOUT_S  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_ratio", "ratio"),
    ("factorize_s", "s"),
    ("chow_s", "s"),
    ("futaki_s", "s"),
    ("bergman_s", "s"),
    ("moment_s", "s"),
    ("balance_s", "s"),
]
COMMANDS = ("factorize", "chow", "futaki", "bergman", "moment", "balance")

PER_LAYER = [
    ("laurent.det.calls", "count"), ("laurent.det.self_s", "s"),
    ("laurent.factorize.calls", "count"), ("laurent.factorize.self_s", "s"),
    ("laurent.multiply.calls", "count"), ("laurent.multiply.self_s", "s"),
    ("chow.chow_weight.calls", "count"), ("chow.chow_weight.self_s", "s"),
    ("chow.transformed_form.self_s", "s"), ("chow.det_per_weight", "ratio"),
    ("chow.central_fiber_cycle.self_s", "s"), ("chow.check_chow_inequality.self_s", "s"),
    ("weights.induced_weights.calls", "count"), ("weights.induced_weights.self_s", "s"),
    ("weights.induced_weights.items", "count"), ("weights.tau_poly.self_s", "s"),
    ("weights.fit_exact_polynomial.self_s", "s"),
    ("bergman.RadialMetric.calls", "count"), ("bergman.RadialMetric.self_s", "s"),
    ("cli.import.sympy_s", "s"), ("cli.import.scipy_s", "s"), ("cli.import_s", "s"),
    ("bergman.gram.calls", "count"), ("bergman.gram.self_s", "s"),
    ("bergman.gram.panel_rule_calls", "count"), ("bergman.gram.distinct_ratio", "ratio"),
    ("bergman.rho.self_s", "s"), ("bergman.fs_pullback_form.self_s", "s"),
    ("bergman.theta_total_variation.self_s", "s"), ("bergman.expansion_fit.self_s", "s"),
    ("bergman.image_cycle.self_s", "s"),
    ("quadrature.panel_rule.calls", "count"), ("quadrature.panel_rule.self_s", "s"),
    ("cycles.balance_iterate.self_s", "s"), ("cycles.balance_iterate.steps", "count"),
    ("cycles.balance_iterate.ms_per_step", "ms"),
    ("cycles.transform_cycle.calls", "count"), ("cycles.transform_cycle.self_s", "s"),
    ("cycles.moment_matrix.calls", "count"), ("cycles.moment_matrix.self_s", "s"),
    ("quadrature.disc_rule.calls", "count"), ("quadrature.disc_rule.self_s", "s"),
    ("quadrature.disc_rule.distinct_ratio", "ratio"),
    ("cli.self_s", "s"), ("acceptance.run_all.total_s", "s"), ("acceptance.run_all.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"), ("trace.wall_s", "s"),
]

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 120.0
# Seconds one pass of each workload takes at the seed commit on a 2-vCPU
# VM, checks and calibrations included; it sets the number of passes in a
# run.
NOMINAL_PASS_S = {"cli_shipped": 7.5, "exact_dense": 10.0, "numeric_levels": 8.5}
# Start no pass that could end after this many times ``--seconds`` into the
# run.  At the nominal pass times a run ends well before that; the limit only
# bites when the host is far slower than usual, and keeps a set of runs
# within its time budget.
RUN_LIMIT_FACTOR = 1.5

# One BLAS thread and one kstab worker thread: a single closed-loop client
# stays within two cores, and traced spans never overlap in time.  Hash
# seed and bytecode writing are pinned so that every launch does the same
# work whatever the caller's environment.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "KSTAB_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


ADDR_NO_RANDOMIZE = 0x0040000


def fix_address_layout():
    """Turn off address-space layout randomization for the processes this one
    starts, where the kernel allows it; True when it is off.  With it on, the
    peak RSS of one numeric_levels worker lands on one of three levels up to
    7 % apart from launch to launch."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    return current != -1 and libc.personality(current | ADDR_NO_RANDOMIZE) != -1


def child_env():
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def wait_child(proc, timeout):
    """Wait for ``proc``, killing it after ``timeout``; (exit code, rusage, timed out)."""
    fired = threading.Event()

    def kill():
        fired.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, fired.is_set()


def launch(cmd, stdout, stderr, timeout):
    """Run ``cmd`` in the checkout; (wall seconds, exit code, rusage, timed out, start)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr,
                            stdin=subprocess.DEVNULL)
    code, usage, timed_out = wait_child(proc, timeout)
    return time.perf_counter() - t0, code, usage, timed_out, t0


def launch_calibration():
    """Seconds the reference launch (``calibrate.LAUNCH_CMD``) takes now."""
    wall, code, _, _, _ = launch(calibrate.LAUNCH_CMD, subprocess.DEVNULL, subprocess.DEVNULL, 60)
    if code != 0:
        raise RuntimeError(f"calibration launch failed (exit {code})")
    return wall


def python_cmd(traced):
    return [sys.executable, *(["-X", "importtime"] if traced else [])]


class Run:
    """One benchmark run: inputs, set-up samples and passes of one workload."""

    def __init__(self, args):
        self.workload = args.workload
        self.work = os.path.join(BENCH, "_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        with open(os.path.join(ROOT, "data", "bump_metric.json")) as fh:
            bump = json.load(fh)
        self.inputs = gen.generate(args.workload, args.seed, args.smoke, bump)
        self.inputs_path = self.path("inputs.json")
        with open(self.inputs_path, "w") as fh:
            json.dump(self.inputs, fh)
        # Smoke sizes have no references: their outputs meet the invariants only.
        self.refs = None if args.smoke else load_refs(args.workload, args.seed)
        self.refs_path = self.path("refs.json")
        with open(self.refs_path, "w") as fh:
            json.dump(self.refs, fh)

    def path(self, name):
        return os.path.join(self.work, name)

    # -- set-up ----------------------------------------------------------------

    def setup_times(self, count):
        """``count`` set-up times, each scaled by the calibrations around it."""
        cals = [launch_calibration()]
        raw = []
        for _ in range(count):
            raw.append(self.setup_sample())
            cals.append(launch_calibration())
        return calibrate.scale(raw, cals, calibrate.LAUNCH_REFERENCE_S)

    def setup_sample(self):
        if self.workload == "cli_shipped":
            cmd = python_cmd(False) + [os.path.join(BENCH, "launcher.py"), "--import-only"]
            wall, code, _, _, _ = launch(cmd, subprocess.DEVNULL, subprocess.DEVNULL, 60)
            if code != 0:
                raise RuntimeError(f"import of kstab.cli failed (exit {code})")
            return wall
        out = self.path("setup.json")
        cmd = python_cmd(False) + [os.path.join(BENCH, "worker.py"), "--setup-only",
                                   "--inputs", self.inputs_path, "--out", out]
        _, code, _, _, t0 = launch(cmd, subprocess.DEVNULL, subprocess.DEVNULL, 60)
        if code != 0:
            raise RuntimeError(f"worker set-up failed (exit {code})")
        with open(out) as fh:
            return json.load(fh)["ready"] - t0

    # -- passes ----------------------------------------------------------------

    def run_pass(self, traced, probes):
        """One pass; with ``probes`` the known-defect probes run after it."""
        if self.workload == "cli_shipped":
            return self.cli_pass(traced, probes)
        return self.worker_pass(traced, probes)

    def worker_pass(self, traced, probes):
        out, err = self.path("pass.json"), self.path("pass.err")
        if os.path.exists(out):
            os.remove(out)
        cmd = python_cmd(traced) + [
            os.path.join(BENCH, "worker.py"), "--inputs", self.inputs_path, "--out", out,
            *(["--refs", self.refs_path] if self.refs is not None else []),
            *(["--trace"] if traced else []), *(["--probes"] if probes else []),
        ]
        with open(err, "w") as fh:
            _, code, _, timed_out, _ = launch(cmd, subprocess.DEVNULL, fh, WORKER_TIMEOUT_S)
        with open(err) as fh:
            stderr = fh.read()
        p = Pass(traced, calibrate.REFERENCE_S)
        if code != 0 or not os.path.exists(out):
            reason = "timed out" if timed_out else f"exit {code}: {stderr.strip()[-300:]}"
            for case in self.inputs["cases"]:
                p.add_case(case["id"], case["command"], None, f"worker {reason}", None)
            for probe in self.inputs["probes"] if probes else []:
                p.add_probe(probe["id"], f"worker {reason}")
            return p
        with open(out) as fh:
            res = json.load(fh)
        for c in res["cases"]:
            p.add_case(c["id"], c["command"], c["seconds"], c.get("error"), c["cal_s"])
        p.cal_end_s = res["cal_end_s"]
        for probe in res["probes"]:
            p.add_probe(probe["id"], probe.get("error"))
        p.rss_mb = res["maxrss_kb"] / 1024.0
        if traced:
            p.spans = res["spans"]
            p.imports = tracing.parse_importtime(stderr)
        return p

    def cli_pass(self, traced, probes):
        p = Pass(traced, calibrate.LAUNCH_REFERENCE_S)
        p.imports = {"import_s": 0.0, "sympy_s": 0.0, "scipy_s": 0.0}
        for case in self.inputs["cases"]:
            cal_s = launch_calibration()
            spans_path = self.path(f"spans-{case['id']}.json")
            wall, code, usage, stderr, error = self.cli_case(case, spans_path if traced else None)
            p.add_case(case["id"], case["command"], wall, error, cal_s)
            p.rss_mb = max(p.rss_mb or 0.0, usage.ru_maxrss / 1024.0)
            if traced and code == 0:
                spans = [[f"{case['id']}:{s[0]}", s[1],
                          None if s[2] is None else f"{case['id']}:{s[2]}",
                          case["id"], *s[4:]]
                         for s in _load_json(spans_path, [])]
                imports = tracing.parse_importtime(stderr)
                for key, value in imports.items():
                    p.imports[key] += value
                stats, _ = tracing.layer_stats(spans)
                p.cli_self_s += wall - imports["import_s"] - sum(
                    st["self_s"] for st in stats.values())
                p.spans.extend(spans)
        p.cal_end_s = launch_calibration()
        for probe in self.inputs["probes"] if probes else []:
            p.add_probe(probe["id"], self.cli_case(probe, None)[-1])
        return p

    def cli_case(self, case, spans_path):
        """Launch one command line, traced when ``spans_path`` is given, and
        check its output; (wall seconds, exit code, rusage, stderr, error)."""
        cmd = python_cmd(spans_path is not None) + [
            os.path.join(BENCH, "launcher.py"),
            *(["--spans", spans_path] if spans_path else []), "--", *case["argv"],
        ]
        out_path, err_path = self.path("case.out"), self.path("case.err")
        with open(out_path, "w") as out_fh, open(err_path, "w") as err_fh:
            wall, code, usage, timed_out, _ = launch(cmd, out_fh, err_fh, CASE_TIMEOUT_S)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        error = None
        if timed_out:
            error = "timed out"
        elif code != 0:
            error = f"exit {code}: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}"
        else:
            try:
                problems = oracle.cli_invariants(case, stdout)
                if self.refs is not None:
                    problems += oracle.compare(oracle.cli_summary(case, stdout),
                                               self.refs.get(case["id"]))
            except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                error = "; ".join(problems)
        return wall, code, usage, stderr, error

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


class Pass:
    """Timings, calibrations and outcomes of one pass over the timed cases,
    whose calibration takes ``reference`` seconds at the reference speed."""

    def __init__(self, traced, reference):
        self.traced = traced
        self.reference = reference
        self.cases = []
        self.probes = []
        self.rss_mb = None
        self.cal_end_s = None
        self.spans = []
        self.imports = None
        self.cli_self_s = 0.0

    def add_case(self, case_id, command, seconds, error, cal_s):
        """A case that took ``seconds`` after a calibration took ``cal_s``."""
        self.cases.append({"id": case_id, "command": command, "seconds": seconds,
                           "error": error, "cal_s": cal_s})

    def add_probe(self, case_id, error):
        self.probes.append({"id": case_id, "error": error})

    @property
    def timed(self):
        """True when every case ran to completion, so the timings are whole."""
        return all(c["seconds"] is not None for c in self.cases)

    @property
    def wall_s(self):
        return sum(c["seconds"] for c in self.cases)

    def scaled(self):
        """Seconds of every case at the calibration's reference speed."""
        return calibrate.scale([c["seconds"] for c in self.cases],
                               [c["cal_s"] for c in self.cases] + [self.cal_end_s],
                               self.reference)

    @property
    def failed(self):
        return sum(1 for c in self.cases if c["error"])

    def to_json(self):
        return {"traced": self.traced, "cases": self.cases, "probes": self.probes,
                "rss_mb": self.rss_mb, "cal_end_s": self.cal_end_s,
                "wall_s": self.wall_s if self.timed else None,
                "scaled": self.scaled() if self.timed else None}


def _load_json(path, default):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return default


def load_refs(workload, seed):
    """References for this workload and seed's input variant."""
    refs = _load_json(os.path.join(BENCH, "refs", f"{workload}.json"), {})
    if workload == "cli_shipped":
        return refs
    return refs.get(str(seed % gen.INPUT_VARIANTS), {})


def environment(seed, fixed_layout):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sympy": version("sympy"),
        "blas_threads": {k: CHILD_ENV[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "KSTAB_THREADS": CHILD_ENV["KSTAB_THREADS"],
        "PYTHONDONTWRITEBYTECODE": CHILD_ENV["PYTHONDONTWRITEBYTECODE"],
        "seed": seed,
        "input_variant": seed % gen.INPUT_VARIANTS,
        "src_lines": src_lines,
        "fixed_address_layout": fixed_layout,
    }


def end_to_end(setups, passes):
    """Times are sums over cases of each case's median over the passes of its
    time at the calibration's reference speed (see ``calibrate.py``), and
    ``setup_s`` is the median of the scaled set-up times; the peak RSS is the
    median over the passes of each pass's peak.
    """
    timed = [p for p in passes if not p.traced and p.timed]
    if not timed:
        return None
    cases = typical(timed)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(t for _, t in cases),
        "peak_rss_mb": statistics.median(p.rss_mb for p in timed),
        "failed_ratio": failed_ratio(passes),
    }
    for cmd in COMMANDS:
        values[f"{cmd}_s"] = sum(t for c, t in cases if c == cmd)
    return values


def typical(passes):
    """(command, median over ``passes`` of its scaled seconds) of every case."""
    scaled = [p.scaled() for p in passes]
    return [(c["command"], statistics.median(s[i] for s in scaled))
            for i, c in enumerate(passes[0].cases)]


def failed_ratio(passes):
    """Cases and probes that failed in any pass over those attempted, each
    counted once, so that the ratio does not depend on the number of passes."""
    attempted = {c["id"] for p in passes for c in p.cases + p.probes}
    failed = {c["id"] for p in passes for c in p.cases + p.probes if c["error"]}
    return len(failed) / len(attempted)


def per_layer(workload, passes):
    untraced = [p for p in passes if not p.traced and p.timed]
    traced = sorted((p for p in passes if p.traced and p.timed), key=lambda p: p.wall_s)
    if not untraced or not traced:
        return None
    p = traced[(len(traced) - 1) // 2]
    stats, derived = tracing.layer_stats(p.spans)
    values = dict(derived)
    for name, st in stats.items():
        values[f"{name}.calls"] = st["calls"]
        values[f"{name}.self_s"] = st["self_s"]
    values["acceptance.run_all.total_s"] = stats["acceptance.run_all"]["total_s"]
    values["cli.import_s"] = p.imports["import_s"]
    values["cli.import.sympy_s"] = p.imports["sympy_s"]
    values["cli.import.scipy_s"] = p.imports["scipy_s"]
    values["cli.self_s"] = p.cli_self_s
    attributed = sum(st["self_s"] for st in stats.values())
    if workload == "cli_shipped":
        attributed += p.imports["import_s"] + p.cli_self_s
    values["trace.wall_s"] = p.wall_s
    values["trace.unattributed_s"] = p.wall_s - attributed
    values["trace.overhead_s"] = (sum(t for _, t in typical(traced))
                                  - sum(t for _, t in typical(untraced)))
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes, one pass of each kind, no references")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kstab", "cli.py")):
        print(f"error: no kstab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    calibrate.pin_to_one_cpu()
    fixed_layout = fix_address_layout()
    t_start = time.perf_counter()
    run = Run(args)
    try:
        run.setup_sample()  # untimed warm-up: bytecode cache and file cache
        setups = run.setup_times(1 if args.smoke else SETUP_SAMPLES)
        passes = []
        kinds = [False, True] if args.trace else [False]
        count = len(kinds) if args.smoke else max(
            len(kinds), round(args.seconds / NOMINAL_PASS_S[args.workload]))
        while len(passes) < count:
            t0 = time.perf_counter()
            passes.append(run.run_pass(kinds[len(passes) % len(kinds)], probes=not passes))
            end = time.perf_counter()
            if (len(passes) >= len(kinds)
                    and end - t_start + (end - t0) > RUN_LIMIT_FACTOR * args.seconds):
                break
    finally:
        run.close()

    env = environment(args.seed, fixed_layout)
    metrics = end_to_end(setups, passes) if not args.trace else per_layer(args.workload, passes)
    names = END_TO_END if not args.trace else PER_LAYER
    result = {
        "workload": args.workload, "env": env, "setup_samples": setups,
        "passes": [p.to_json() for p in passes], "metrics": metrics,
    }
    results_dir = os.path.join(BENCH, "_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                        f"{stamp}-{os.getpid()}.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    for p in passes:
        for c in p.cases + p.probes:
            if c["error"]:
                print(f"FAILED {c['id']}: {c['error']}")
    if metrics is None:
        print("error: no pass completed all of its cases; no timings to report",
              file=sys.stderr)
        return 1
    for name, unit in names:
        print(f"{name:42s} {metrics[name]:>14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    attempted = sum(len(p.cases) for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
