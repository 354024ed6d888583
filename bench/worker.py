"""One pass of an in-process workload, in a fresh process.

    python3 bench/worker.py --inputs IN.json --out OUT.json [--setup-only]
                            [--trace] [--refs REFS.json] [--probes]

Without ``--refs`` (smoke mode) outputs are checked by the invariants alone.

The worker caps its own address space, imports ``kstab`` from the
checkout's ``src/``, reads the generated inputs and records the moment it is
ready: that is the end of set-up.  It then runs every case in order, one at
a time, with ``gc.collect()``, the correctness checks and a run of the host
speed calibration (``calibrate.py``) between cases and outside the timed
region, one more calibration after the last case, and finally the untimed
known-defect probes when ``--probes`` is given.
A case that raises, times out or hits the memory cap is a failed case.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# Address-space cap of every benchmark child, and the time one case may take.
MEM_MB = 2048
CASE_TIMEOUT_S = 60.0


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout("case exceeded its time limit")


def cap_memory():
    limit = MEM_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--refs", default=None)
    ap.add_argument("--probes", action="store_true", help="run the known-defect probes")
    args = ap.parse_args(argv)

    cap_memory()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import kstab.cli  # noqa: F401  (the import every kstab user pays)

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    ready = time.perf_counter()
    if args.setup_only:
        _write(args.out, {"ready": ready})
        return

    import calibrate
    import cases
    import oracle
    from tracing import Tracer

    refs = None
    if args.refs:
        with open(args.refs) as fh:
            refs = json.load(fh)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    results = []
    for case in inputs["cases"]:
        gc.collect()
        entry = {"id": case["id"], "command": case["command"], "cal_s": calibrate.measure()}
        signal.setitimer(signal.ITIMER_REAL, CASE_TIMEOUT_S)
        tracer.case = case["id"]
        t0 = time.perf_counter()
        try:
            out = cases.RUNNERS[case["command"]](case)
        except Exception as exc:  # a failed case, recorded and skipped
            out = None
            entry["error"] = _describe(exc)
        finally:
            t1 = time.perf_counter()
            tracer.case = None
            signal.setitimer(signal.ITIMER_REAL, 0)
        entry["seconds"] = t1 - t0
        if out is not None:
            try:
                problems = oracle.invariants(case, out)
                if refs is not None:
                    problems += oracle.compare(oracle.summarize(case, out), refs.get(case["id"]))
            except Exception as exc:  # a check that cannot run is a mismatch
                problems = [f"check failed: {_describe(exc)}"]
            if problems:
                entry["error"] = "; ".join(problems)
        del out
        results.append(entry)

    cal_end_s = calibrate.measure()
    # The probe allocates far more than any timed case; keep it out of the peak.
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    gc.collect()
    probes = []
    for spec in inputs["probes"] if args.probes else []:
        entry = {"id": spec["id"]}
        signal.setitimer(signal.ITIMER_REAL, CASE_TIMEOUT_S)
        try:
            problems = oracle.probe(spec)
        except Exception as exc:  # the known defect this probe keeps visible
            problems = [_describe(exc)]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if problems:
            entry["error"] = "; ".join(problems)
        probes.append(entry)

    _write(args.out, {
        "ready": ready,
        "cases": results,
        "probes": probes,
        "maxrss_kb": maxrss_kb,
        "cal_end_s": cal_end_s,
        "spans": tracer.spans,
    })


def _describe(exc):
    if isinstance(exc, MemoryError):
        return "memory cap reached"
    frame = traceback.extract_tb(exc.__traceback__)[-1] if exc.__traceback__ else None
    where = f" at {os.path.basename(frame.filename)}:{frame.lineno}" if frame else ""
    return f"{type(exc).__name__}: {exc}{where}"


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    main()
