"""Command line front end, on the standard library's argparse.

Exit codes: 0 success, 2 parse/validation errors (usage errors, option
values out of range, unreadable inputs, an unwritable ``--out``), 3
invariant violations (mathematically invalid data), 4 numerical
non-convergence (``balance`` still writes its residual report).  Option
types check the ranges and ``main`` maps library errors to codes, so a
command only reads, computes and emits; an exit 2 or 3 prints one
``error:`` line and no report.  Reports are deterministic for a fixed
configuration: exact rationals are printed as "num/den" strings, floats
with shortest round-trip repr in JSON and 17 significant digits in CSV,
and booleans and None as the JSON literals in both.  Each command imports
the kstab modules it uses when it runs, so ``import kstab.cli``, ``--help``
and a usage error load no other kstab module, and ``factorize``,
``futaki`` and ``chow`` run on the standard library alone, save where a
plane conic's central-fiber pairing is not exact and takes quadrature.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys

from kstab import ascii_int

EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_NONCONVERGENCE = 4

# Largest --order: the Gauss-Legendre rule of order n (2n in moment) comes
# from the eigenvalues of a dense n x n matrix.
_MAX_ORDER = 512

# Largest bergman level and --grid: gram's arrays grow with the level, rho's
# with level x grid; 8192 is the level the Gram quadrature is meant to reach.
_MAX_LEVEL = 8192
_MAX_GRID = 4096


def _read_input(path, parser, what):
    """Parse a JSON input file whose top level is an object with ``parser``;
    an input that cannot be read, decoded or parsed exits 2."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        sys.exit(_fail(EXIT_PARSE, f"malformed JSON in {path}: line {exc.lineno} col {exc.colno}: {exc.msg}"))
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        sys.exit(_fail(EXIT_PARSE, f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}"))
    if not isinstance(obj, dict):
        sys.exit(_fail(EXIT_PARSE, f"bad {what}: the top level of {path} is not a JSON object"))
    return _parsed(parser, obj, what)


def _parsed(parse, value, what):
    """``parse(value)``; a value it rejects exits 2 with ``bad {what}: ...``."""
    try:
        return parse(value)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        sys.exit(_fail(EXIT_PARSE, f"bad {what}: {'missing field ' if isinstance(exc, KeyError) else ''}{exc}"))


def _bounded(kind, ok, expected):
    """An argparse ``type=``: ``kind(text)`` when ``ok`` holds for it, else a
    usage error naming the ``expected`` values."""

    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: 'x'"
    return parse


def _criteria(text):
    """The argparse type of ``verify --only``: criterion numbers."""
    from kstab.acceptance import CRITERIA

    known = {c[0] for c in CRITERIA}
    try:
        numbers = [ascii_int(x) for x in text.split(",")]
        if not known.issuperset(numbers):
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected criterion numbers from 1..{max(known)}, got {text!r}") from None
    return numbers


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(data, out, fmt):
    if fmt == "json":
        text = json.dumps(data, indent=2, sort_keys=True)
    else:
        text = _to_csv(data)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _csv_cell(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, (list, dict, bool)) or v is None:
        return json.dumps(v, sort_keys=True)
    return str(v)


def _to_csv(data):
    """Rows as one line each under ``columns``; a flat dict as key,value
    lines, nested values as JSON text in a quoted cell."""
    rows = data.get("rows")
    if rows is None:
        header, table = ["key", "value"], [[k, data[k]] for k in sorted(data)]
    else:
        header, table = data["columns"], [[row[c] for c in data["columns"]] for row in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in line] for line in table)
    return buf.getvalue()[:-1]


class _Formatter(argparse.HelpFormatter):
    """Sizes the name column for command names at their printed indent."""

    def add_argument(self, action):
        super().add_argument(action)
        for sub in getattr(action, "_get_subactions", list)():
            width = len(self._format_action_invocation(sub)) + self._current_indent + self._indent_increment
            self._action_max_length = max(self._action_max_length, width)


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line and exit 2, like any bad input.
    A word that starts with ``-`` and a digit (``--k -4,8,16``) is a value,
    as no option starts so, and the option's own check reports it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        sys.exit(_fail(EXIT_PARSE, message))


def cmd_factorize(input_path, out, fmt):
    """Normal form left * t^A * right of a loop."""
    from kstab import laurent as lr

    fac = lr.factorize(_read_input(input_path, lr.loop_from_json, "loop input"))
    _emit(
        {
            "weights": list(fac.weights),
            "order": list(fac.order),
            "exponents": fac.exponent_vector(),
            "left": lr.loop_to_json(fac.left),
            "right": lr.loop_to_json(fac.right),
        },
        out,
        fmt,
    )


def cmd_futaki(input_path, out, fmt, krange, sign):
    """Exact weight polynomial, Chow table and Futaki invariant."""
    from kstab import weights as wt

    ws = _read_input(input_path, wt.weight_system_from_json, "weight system")
    lo, hi = _parsed(_parse_range_pair, krange, f"level range {krange!r}")
    sign_val = wt.CALIBRATED_SIGN if sign == "calibrated" else -wt.CALIBRATED_SIGN
    _emit(wt.weight_report(ws, kmin=lo, kmax=hi, sign_convention=sign_val), out, fmt)


def cmd_chow(input_path, out, fmt, loop_path, convention, order, tol):
    """Chow weight of a hypersurface degeneration, with the central-fiber
    pairing check for plane conics."""
    from kstab import chow as cw
    from kstab import laurent as lr
    from kstab import weights as wt

    form = _read_input(input_path, cw.form_from_json, "form input")
    g = _read_input(loop_path, lr.loop_from_json, "loop input")
    data = {"convention": convention}
    if form.nvars != 3 or form.degree != 2 or convention != "calibrated":
        ch = cw.chow_weight(form, g, convention=convention)
    else:
        try:
            ch, chk, fiber = cw.central_fiber_pairing(form, g, tol=tol)
        except ValueError as exc:  # no torus decomposition of the central fiber; chow_weight raises any other again
            ch, data["note"] = cw.chow_weight(form, g), f"no central-fiber pairing: {exc}"
        else:
            if chk is None:  # the pairing needs quadrature
                chk = cw.check_chow_inequality(g, cw.central_fiber_cycle(form, g, fiber), ch=ch, order=order, tol=tol)
            data.update(pairing=chk.pairing, slack=chk.slack, quad_error=chk.quad_error,
                        inequality_satisfied=chk.satisfied, weights=list(chk.weights),
                        section_diagonal=list(chk.exponents))
    data["chow_weight"] = wt.frac_str(ch)
    _emit(data, out, fmt)


def cmd_moment(input_path, out, fmt, order, tol):
    """Trace-free moment matrix of a parametrized cycle."""
    from kstab import cycles as cy

    cycle = _read_input(input_path, cy.cycle_from_json, "cycle input")
    res = cy.moment_matrix(cycle, order=order, tol=tol)
    m = res.matrix
    _emit(
        {
            "matrix_re": [[float(x) for x in row] for row in m.real],
            "matrix_im": [[float(x) for x in row] for row in m.imag],
            "trace_norm": cy.trace_norm(m),
            "volume": res.volume,
            "quad_error": res.quad_error,
            "order": res.order,
        },
        out,
        fmt,
    )


def cmd_balance(input_path, out, fmt, tol, max_steps, order):
    """Balanced-embedding iteration; CSV of residuals per step."""
    from kstab import cycles as cy

    cycle = _read_input(input_path, cy.cycle_from_json, "cycle input")
    res = cy.balance_iterate(cycle, max_steps=max_steps, tol=tol, order=order)
    data = {"converged": res.converged, "steps": res.steps, "note": res.note}
    if fmt == "csv":
        data["columns"] = ["step", "residual"]
        data["rows"] = [{"step": i, "residual": r} for i, r in enumerate(res.residuals)]
    else:
        data["residuals"] = res.residuals
        data["final_residual"] = res.residuals[-1] if res.residuals else None
    _emit(data, out, fmt)
    if not res.converged:
        final = f"final residual {res.residuals[-1] if res.residuals else float('nan'):.3e}"
        print(f"non-convergence after {res.steps} steps; {res.note or final}", file=sys.stderr)
        sys.exit(EXIT_NONCONVERGENCE)


def _parse_range_pair(text):
    """Parse 'lo:hi' or 'hi' (lo = 1) with 1 <= lo <= hi, at most 8192
    levels; ValueError otherwise."""
    parts = [ascii_int(x) for x in text.split(":")]
    if len(parts) == 1:
        parts.insert(0, 1)
    if len(parts) != 2 or not 1 <= parts[0] <= parts[1]:
        raise ValueError("expected lo:hi with 1 <= lo <= hi")
    if parts[1] - parts[0] >= _MAX_LEVEL:
        raise ValueError(f"at most {_MAX_LEVEL} levels")
    return parts[0], parts[1]


def _parse_klist(text):
    """Parse k ranges: '8:64:double' doubles, 'a:b:step' steps, 'a,b,c' lists.

    Raises ValueError unless there are levels and they are distinct and in
    1..8192 (a range is checked before it is listed), and a step is at least 1."""
    parts = text.split(":")
    if "," in text or len(parts) == 1:
        ks = [ascii_int(x) for x in text.split(",")]
    elif len(parts) == 3 and parts[2] == "double":
        ks, k, hi = [], ascii_int(parts[0]), ascii_int(parts[1])
        while 0 < k <= hi:
            ks.append(k)
            k *= 2
    elif len(parts) <= 3:
        lo, hi, step = ascii_int(parts[0]), ascii_int(parts[1]), ascii_int(parts[2]) if len(parts) == 3 else 1
        if step < 1:
            raise ValueError(f"step must be a positive integer, got {step}")
        ks = range(lo, hi + 1, step) if 1 <= lo <= _MAX_LEVEL and 1 <= hi <= _MAX_LEVEL else []
    else:
        raise ValueError("expected lo:hi, lo:hi:step or lo:hi:double")
    if not ks or min(ks) < 1 or max(ks) > _MAX_LEVEL or len(set(ks)) != len(ks):
        raise ValueError(f"levels must be a nonempty set of distinct integers in 1..{_MAX_LEVEL}")
    return list(ks)


def cmd_bergman(input_path, out, fmt, krange, grid):
    """Density-of-states run: rho, fitted first correction, discrepancy."""
    import numpy as np

    from kstab import bergman as bg

    metric = _read_input(input_path, bg.metric_from_json, "metric input")
    klist = _parsed(_parse_klist, krange, f"level range {krange!r}")
    s_grid = bg.default_grid(grid)
    rhos = {k: bg.rho(metric, k, s_grid) for k in klist}
    tvs = {k: bg.theta_total_variation(metric, k) for k in klist}
    a1 = bg.expansion_fit(metric, klist, s_grid).a1 if len(klist) >= 3 else np.full(grid, np.nan)
    if fmt == "csv":
        rows = [
            {
                "k": k,
                "gridpoint": float(s),
                "rho": float(rhos[k][i]),
                "a1_fit": "" if np.isnan(a1[i]) else float(a1[i]),
                "theta_tv": tvs[k],
            }
            for k in klist
            for i, s in enumerate(s_grid)
        ]
        data = {"columns": ["k", "gridpoint", "rho", "a1_fit", "theta_tv"], "rows": rows}
    else:
        data = {
            "k": klist,
            "grid": [float(s) for s in s_grid],
            "rho": {str(k): [float(x) for x in rhos[k]] for k in klist},
            "a1_fit": [None if np.isnan(x) else float(x) for x in a1],
            "theta_tv": {str(k): tvs[k] for k in klist},
            "positivity_certificate": metric.positivity_certificate,
        }
    _emit(data, out, fmt)


def cmd_verify(out, only):
    """Run the acceptance suite and print one pass/fail line per criterion."""
    from kstab import acceptance as acc

    results = acc.run_all(only)
    table = acc.format_table(results)
    if out:
        with open(out, "w") as fh:
            fh.write(table + "\n")
    print(table)
    hard_failures = [r for r in results if not r.passed and not r.expected_failure]
    if hard_failures:
        sys.exit(EXIT_INVARIANT)


def main(argv=None):
    """Run one command line, ``sys.argv[1:]`` when ``argv`` is None; always
    ends in SystemExit, with the command's exit code.  A library error ends
    the run with one ``error:`` line: a QuadratureError exits 4, a
    FactorizationError or ValueError 3, an OSError 2; any other propagates.
    BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` is set: its products here are small, and more
    threads made them slower."""
    if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():  # read when numpy is imported
        os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    parser = _Parser(prog="kstab", description="Stability invariants of polarized degenerations.",
                     formatter_class=_Formatter, allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, fn, reads_input=True):
        """Add subcommand ``name`` running ``fn``; return its add_argument."""
        sub = commands.add_parser(name, help=fn.__doc__.split(".")[0], description=fn.__doc__, allow_abbrev=False)
        sub.set_defaults(run=fn)
        if reads_input:
            sub.add_argument("--input", dest="input_path", metavar="FILE", required=True, help="input JSON file")
            sub.add_argument("--out", metavar="FILE", help="output file (stdout when omitted)")
            sub.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
        return sub.add_argument

    signs = {"choices": ["calibrated", "flipped"], "default": "calibrated"}
    order = _bounded(int, lambda n: 1 <= n <= _MAX_ORDER, f"an integer in 1..{_MAX_ORDER}")
    positive = _bounded(float, lambda x: 0 < x < math.inf, "a finite number > 0")
    steps = _bounded(int, lambda n: n >= 1, "an integer >= 1")
    grid = _bounded(int, lambda n: 1 <= n <= _MAX_GRID, f"an integer in 1..{_MAX_GRID}")
    command("factorize", cmd_factorize)
    opt = command("futaki", cmd_futaki)
    opt("--k", dest="krange", default="1:10", help="Chow table levels lo:hi")
    opt("--sign", **signs)
    opt = command("chow", cmd_chow)
    opt("--loop", dest="loop_path", metavar="FILE", required=True, help="loop JSON file")
    opt("--sign", dest="convention", **signs)
    opt("--order", default=48, type=order, help="quadrature order, when the pairing is not exact")
    opt("--tol", default=1e-6, type=_bounded(float, math.isfinite, "a finite number"), help="satisfied: slack >= -tol")
    opt = command("moment", cmd_moment)
    opt("--order", default=48, type=order, help="quadrature order")
    opt("--tol", default=1e-8, type=positive)
    opt = command("balance", cmd_balance)
    opt("--tol", default=1e-8, type=positive, help="stop when the trace norm of the moment matrix is at most this")
    opt("--max-steps", default=500, type=steps, help="largest number of steps")
    opt("--order", default=32, type=order, help="quadrature order")
    opt = command("bergman", cmd_bergman)
    opt("--k", dest="krange", default="8:64:double", help="levels, e.g. 8:64:double")
    opt("--grid", default=100, type=grid, help="number of radial grid points")
    opt = command("verify", cmd_verify, reads_input=False)
    opt("--out", metavar="FILE", help="also write the table to this file")
    opt("--only", type=_criteria, help="comma-separated criterion numbers")
    args = vars(parser.parse_args(argv))
    try:
        args.pop("run")(**args)
    except Exception as exc:
        # each module is loaded by every command that can raise its error
        quadrature, laurent = sys.modules.get("kstab.quadrature"), sys.modules.get("kstab.laurent")
        if quadrature and isinstance(exc, quadrature.QuadratureError):
            sys.exit(_fail(EXIT_NONCONVERGENCE, str(exc)))
        if isinstance(exc, ValueError) or laurent and isinstance(exc, laurent.FactorizationError):
            sys.exit(_fail(EXIT_INVARIANT, str(exc)))
        if isinstance(exc, OSError):
            sys.exit(_fail(EXIT_PARSE, str(exc)))
        raise
    sys.exit(0)


if __name__ == "__main__":
    main()
