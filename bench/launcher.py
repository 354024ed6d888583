"""Run one ``kstab`` command line as a fresh process, optionally traced.

    python3 bench/launcher.py [--spans OUT.json] [--import-only] -- ARGS...

It does what the ``kstab`` console script does (import ``kstab.cli`` and
call ``main``) with the checkout's ``src/`` on the path and the address
space capped.  With ``--spans`` it installs the benchmark's wrappers before
``main`` runs and writes the recorded spans when the command exits.
``--import-only`` stops after the import: the set-up measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", default=None)
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    from worker import cap_memory

    cap_memory()
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    tracer = None
    if opts.spans:
        from tracing import Tracer

        tracer = Tracer()
    import kstab.cli

    if opts.import_only:
        return 0
    if tracer:
        tracer.install()
        tracer.case = "cli"
    sys.argv = ["kstab", *argv]
    try:
        kstab.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        if tracer:
            tracer.case = None
            with open(opts.spans, "w") as fh:
                json.dump(tracer.spans, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
