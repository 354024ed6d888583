"""Command line front end, on the standard library's argparse.

Exit codes: 0 success, 2 parse/validation errors (usage errors included),
3 invariant violations (mathematically invalid data), 4 numerical
non-convergence (a residual report is still written); an exit 2 prints
one ``error:`` line and no report.  Reports are deterministic for a fixed
configuration: exact rationals are printed as "num/den" strings, floats
with shortest round-trip repr in JSON and 17 significant digits in CSV,
and booleans and None as the JSON literals in both.  The numeric modules
(and numpy) are imported inside the commands that use them, so
``factorize``, ``futaki`` and ``chow`` on a form that is not a plane conic
run on the standard library alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from kstab import weights as wt
from kstab.laurent import (
    DegenerateLoopError,
    FactorizationError,
    factorize,
    loop_from_json,
    loop_to_json,
)

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
    any malformed input exits 2."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        sys.exit(_fail(EXIT_PARSE, f"input file not found: {path}"))
    except json.JSONDecodeError as exc:
        sys.exit(_fail(EXIT_PARSE, f"malformed JSON in {path}: line {exc.lineno} col {exc.colno}: {exc.msg}"))
    if not isinstance(obj, dict):
        sys.exit(_fail(EXIT_PARSE, f"bad {what}: the top level of {path} is not a JSON object"))
    try:
        return parser(obj)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        sys.exit(_fail(EXIT_PARSE, f"bad {what}: {exc}"))


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


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line and exit 2, like any bad input."""

    def error(self, message):
        sys.exit(_fail(EXIT_PARSE, message))


def cmd_factorize(input_path, out, fmt):
    """Normal form left * t^A * right of a loop."""
    g = _read_input(input_path, loop_from_json, "loop input")
    try:
        fac = factorize(g)
    except (DegenerateLoopError, FactorizationError) as exc:
        sys.exit(_fail(EXIT_INVARIANT, str(exc)))
    _emit(
        {
            "weights": list(fac.weights),
            "order": list(fac.order),
            "exponents": fac.exponent_vector(),
            "left": loop_to_json(fac.left),
            "right": loop_to_json(fac.right),
        },
        out,
        fmt,
    )


def cmd_futaki(input_path, out, fmt, krange, sign):
    """Exact weight polynomial, Chow table and Futaki invariant."""
    ws = _read_input(input_path, wt.weight_system_from_json, "weight system")
    try:
        lo, hi = _parse_range_pair(krange)
    except ValueError as exc:
        sys.exit(_fail(EXIT_PARSE, f"bad level range {krange!r}: {exc}"))
    sign_val = wt.CALIBRATED_SIGN if sign == "calibrated" else -wt.CALIBRATED_SIGN
    try:
        report = wt.weight_report(ws, kmin=lo, kmax=hi, sign_convention=sign_val)
    except ValueError as exc:
        sys.exit(_fail(EXIT_INVARIANT, str(exc)))
    _emit(report, out, fmt)


def cmd_chow(input_path, out, fmt, loop_path, convention, order, tol):
    """Chow weight of a hypersurface degeneration, with the central-fiber
    pairing check for plane conics."""
    from kstab import chow as cw

    form = _read_input(input_path, cw.form_from_json, "form input")
    g = _read_input(loop_path, loop_from_json, "loop input")
    if not 1 <= order <= _MAX_ORDER:
        sys.exit(_fail(EXIT_PARSE, f"order must be in 1..{_MAX_ORDER}"))
    try:
        ch = cw.chow_weight(form, g, convention=convention)
    except (ValueError, FactorizationError) as exc:
        sys.exit(_fail(EXIT_INVARIANT, str(exc)))
    data = {"chow_weight": wt.frac_str(ch), "convention": convention}
    if form.nvars == 3 and form.degree == 2 and convention == "calibrated":
        from kstab.quadrature import QuadratureError

        try:
            fiber = cw.central_fiber_cycle(form, g)
            chk = cw.check_chow_inequality(g, fiber, ch=ch, order=order, tol=tol)
            data.update(
                {
                    "pairing": chk.pairing,
                    "slack": chk.slack,
                    "quad_error": chk.quad_error,
                    "inequality_satisfied": chk.satisfied,
                    "weights": list(chk.weights),
                    "section_diagonal": list(chk.exponents),
                }
            )
        except ValueError as exc:  # no torus decomposition of the central fiber
            data["note"] = f"no central-fiber pairing: {exc}"
        except FactorizationError as exc:
            sys.exit(_fail(EXIT_INVARIANT, str(exc)))
        except QuadratureError as exc:
            sys.exit(_fail(EXIT_NONCONVERGENCE, str(exc)))
    _emit(data, out, fmt)


def cmd_moment(input_path, out, fmt, order, tol):
    """Trace-free moment matrix of a parametrized cycle."""
    from kstab import cycles as cy
    from kstab.quadrature import QuadratureError

    cycle = _read_input(input_path, cy.cycle_from_json, "cycle input")
    if not 1 <= order <= _MAX_ORDER or tol <= 0:
        sys.exit(_fail(EXIT_PARSE, f"order must be in 1..{_MAX_ORDER} and tol positive"))
    try:
        res = cy.moment_matrix(cycle, order=order, tol=tol)
    except QuadratureError as exc:
        sys.exit(_fail(EXIT_NONCONVERGENCE, str(exc)))
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
    if tol <= 0 or max_steps < 1 or not 1 <= order <= _MAX_ORDER:
        sys.exit(_fail(EXIT_PARSE, f"tol and max-steps must be positive and order in 1..{_MAX_ORDER}"))
    try:
        res = cy.balance_iterate(cycle, max_steps=max_steps, tol=tol, order=order)
    except ValueError as exc:
        sys.exit(_fail(EXIT_PARSE, str(exc)))
    data = {"converged": res.converged, "steps": res.steps, "note": res.note}
    if fmt == "csv":
        data["columns"] = ["step", "residual"]
        data["rows"] = [{"step": i, "residual": r} for i, r in enumerate(res.residuals)]
    else:
        data["residuals"] = res.residuals
        data["final_residual"] = res.residuals[-1] if res.residuals else None
    _emit(data, out, fmt)
    if not res.converged:
        print(
            f"non-convergence after {res.steps} steps; final residual "
            f"{res.residuals[-1] if res.residuals else float('nan'):.3e}",
            file=sys.stderr,
        )
        sys.exit(EXIT_NONCONVERGENCE)


def _parse_range_pair(text):
    """Parse 'lo:hi' or 'hi' (lo = 1) with 1 <= lo <= hi; ValueError otherwise."""
    parts = [int(x) for x in text.split(":")]
    if len(parts) == 1:
        parts.insert(0, 1)
    if len(parts) != 2 or not 1 <= parts[0] <= parts[1]:
        raise ValueError("expected lo:hi with 1 <= lo <= hi")
    return parts[0], parts[1]


def _parse_klist(text):
    """Parse k ranges: '8:64:double' doubles, 'a:b:step' steps, 'a,b,c' lists.

    Raises ValueError unless there are levels and they are distinct and in
    1..8192 (a range is checked before it is listed)."""
    parts = text.split(":")
    if "," in text or len(parts) == 1:
        ks = [int(x) for x in text.split(",")]
    elif len(parts) == 3 and parts[2] == "double":
        ks, k = [], int(parts[0])
        while 0 < k <= int(parts[1]):
            ks.append(k)
            k *= 2
    elif len(parts) <= 3:
        lo, hi, step = int(parts[0]), int(parts[1]), int(parts[2]) if len(parts) == 3 else 1
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
    from kstab.quadrature import QuadratureError

    metric = _read_input(input_path, bg.metric_from_json, "metric input")
    try:
        klist = _parse_klist(krange)
    except ValueError as exc:
        sys.exit(_fail(EXIT_PARSE, f"bad level range {krange!r}: {exc}"))
    if not 1 <= grid <= _MAX_GRID:
        sys.exit(_fail(EXIT_PARSE, f"grid must be in 1..{_MAX_GRID}"))
    s_grid = bg.default_grid(grid)
    try:
        rhos = {k: bg.rho(metric, k, s_grid) for k in klist}
        tvs = {k: bg.theta_total_variation(metric, k) for k in klist}
        a1 = (
            bg.expansion_fit(metric, klist, s_grid).a1
            if len(klist) >= 3
            else np.full(grid, np.nan)
        )
    except QuadratureError as exc:
        sys.exit(_fail(EXIT_NONCONVERGENCE, str(exc)))
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

    known = {c[0] for c in acc.CRITERIA}
    try:
        numbers = [int(x) for x in only.split(",")] if only else None
        if numbers and not known.issuperset(numbers):
            raise ValueError
    except ValueError:
        sys.exit(_fail(EXIT_PARSE, f"bad --only {only!r}: expected criterion numbers from 1..{max(known)}"))
    results = acc.run_all(numbers)
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
    ends in SystemExit, with the command's exit code."""
    parser = _Parser(prog="kstab", description="Stability invariants of polarized degenerations.", allow_abbrev=False)
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
    command("factorize", cmd_factorize)
    opt = command("futaki", cmd_futaki)
    opt("--k", dest="krange", default="1:10", help="Chow table levels lo:hi")
    opt("--sign", **signs)
    opt = command("chow", cmd_chow)
    opt("--loop", dest="loop_path", metavar="FILE", required=True, help="loop JSON file")
    opt("--sign", dest="convention", **signs)
    opt("--order", default=48, type=int, help="quadrature order")
    opt("--tol", default=1e-6, type=float)
    opt = command("moment", cmd_moment)
    opt("--order", default=48, type=int, help="quadrature order")
    opt("--tol", default=1e-8, type=float)
    opt = command("balance", cmd_balance)
    opt("--tol", default=1e-8, type=float)
    opt("--max-steps", default=500, type=int)
    opt("--order", default=32, type=int)
    opt = command("bergman", cmd_bergman)
    opt("--k", dest="krange", default="8:64:double", help="levels, e.g. 8:64:double")
    opt("--grid", default=100, type=int, help="number of radial grid points")
    opt = command("verify", cmd_verify, reads_input=False)
    opt("--out", metavar="FILE", help="also write the table to this file")
    opt("--only", help="comma-separated criterion numbers")
    args = vars(parser.parse_args(argv))
    args.pop("run")(**args)
    sys.exit(0)


if __name__ == "__main__":
    main()
