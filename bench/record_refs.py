"""Record the reference outputs that the oracle compares against.

    python3 bench/record_refs.py --workload {cli_shipped,exact_dense,numeric_levels}

Run it at the commit whose outputs are the reference; it writes
``bench/refs/<workload>.json``.  Seeded workloads keep one entry per input
variant (``gen.INPUT_VARIANTS`` of them; a seed runs variant
``seed % INPUT_VARIANTS``), for the cases with exact outputs
(``factorize``, ``chow``, ``futaki``).  Nothing is recorded from an output
that fails its invariants.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import cases  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402

EXACT_COMMANDS = ("factorize", "chow", "futaki")


def _bump():
    with open(os.path.join(ROOT, "data", "bump_metric.json")) as fh:
        return json.load(fh)


def seed_refs(workload, seed):
    refs = {}
    for case in gen.generate(workload, seed, bump_metric=_bump())["cases"]:
        if case["command"] not in EXACT_COMMANDS:
            continue
        out = cases.RUNNERS[case["command"]](case)
        problems = oracle.invariants(case, out)
        if problems:
            raise RuntimeError(f"seed {seed} {case['id']}: {problems}")
        refs[case["id"]] = oracle.summarize(case, out)
    return refs


def cli_refs():
    refs = {}
    for case in gen.generate("cli_shipped", 0)["cases"]:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "launcher.py"), "--", *case["argv"]],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        problems = oracle.cli_invariants(case, proc.stdout)
        if problems:
            raise RuntimeError(f"{case['id']}: {problems}")
        refs[case["id"]] = oracle.cli_summary(case, proc.stdout)
    return refs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    args = ap.parse_args()
    if args.workload == "cli_shipped":
        refs = cli_refs()
    else:
        refs = {str(seed): seed_refs(args.workload, seed) for seed in range(gen.INPUT_VARIANTS)}
    os.makedirs(os.path.join(BENCH, "refs"), exist_ok=True)
    write_refs(os.path.join(BENCH, "refs", f"{args.workload}.json"), refs)


def write_refs(path, refs):
    """One line per seed (or per case), keys in numeric order."""
    keys = sorted(refs, key=lambda k: (not k.isdigit(), int(k) if k.isdigit() else k))
    lines = [f"{json.dumps(k)}: {json.dumps(refs[k], sort_keys=True, separators=(',', ':'))}"
             for k in keys]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
