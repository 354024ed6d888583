"""Correctness oracle: every output of every case is checked on every run.

Three kinds of check, all made outside the timed region:

* exact outputs (``"num/den"`` strings, weights, ``order``, factor entries,
  Chow weights) must equal the references recorded from the seed commit in
  ``bench/refs/`` (large outputs are compared through a SHA-256 digest);
* floats must agree with the references within the tolerances the program
  states (``--tol`` defaults, the Gram quadrature's 1e-12 relative change);
* invariants that need no reference: ``factorize`` reassembles to its input
  and its weights are the divisors the generator built in; the c09 density
  normalization; the c10 coefficient ``a1 = S/2``; ``quad_error <= tol``;
  ``converged`` with final residual ``<= tol``.

Arithmetic for the invariants is done here, not with ``kstab``'s own
routines, except where the invariant is about a public ``kstab`` function.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from fractions import Fraction

import numpy as np

import gen

# (relative, absolute) tolerance per float field.  theta_tv is integrated to
# 1e-8 and a1 is k * (rho - 1) extrapolated from levels up to 1024 (kstab bergman
# on the shipped metric).
FLOAT_TOL = {
    "pairing": (0.0, 1e-6),
    "slack": (0.0, 1e-6),
    "matrix": (0.0, 1e-8),
    "volume": (0.0, 1e-8),
    "rho": (1e-8, 0.0),
    "theta_tv": (0.0, 1e-7),
    "a1": (0.0, 1e-5),
}
# Every 20th grid point of a bergman report goes into the reference.
RHO_STRIDE = 20


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def compare(summary, ref):
    """Problems found comparing a summary with its reference; an output that
    has something to compare but no reference is a problem too."""
    if ref is None:
        return ["no reference recorded"] if summary else []
    problems = []
    for key, want in ref.get("exact", {}).items():
        got = summary.get("exact", {}).get(key)
        if got != want:
            problems.append(f"{key}: {str(got)[:80]} != reference {str(want)[:80]}")
    for key, want in ref.get("approx", {}).items():
        got = summary.get("approx", {}).get(key)
        rtol, atol = FLOAT_TOL[key.split(":")[0]]
        if got is None or np.shape(got) != np.shape(want) or not np.allclose(
            np.asarray(got, dtype=float), np.asarray(want, dtype=float), rtol=rtol, atol=atol
        ):
            problems.append(f"{key}: differs from reference beyond (rtol {rtol}, atol {atol})")
    return problems


# -- exact cases ---------------------------------------------------------------


def _loop_dicts(obj):
    n = obj["size"]
    flat = [{e: Fraction(num, den) for e, num, den in p} for p in obj["entries"]]
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def _frac(x):
    return f"{x.numerator}/{x.denominator}"


def summarize(case, result):
    """Canonical exact outputs and reference-compared floats of one case."""
    from kstab import laurent

    cmd = case["command"]
    if cmd == "factorize":
        return {"exact": {
            "weights": list(result.weights),
            "order": list(result.order),
            "factors": digest([laurent.loop_to_json(result.left),
                               laurent.loop_to_json(result.right)]),
        }}
    if cmd == "chow":
        ch, check = result
        out = {"exact": {"chow": _frac(ch)}}
        if check is not None:
            out["exact"].update({"weights": list(check.weights),
                                 "exponents": list(check.exponents),
                                 "satisfied": bool(check.satisfied)})
            out["approx"] = {"pairing": check.pairing}
        return out
    if cmd == "futaki":
        return {"exact": {"report": digest(result), "futaki": result["futaki"]}}
    return {}


def invariants(case, result):
    """Reference-free checks of one case's outputs."""
    cmd = case["command"]
    problems = []
    if cmd == "factorize":
        from kstab import laurent

        if list(result.weights) != case["weights"]:
            problems.append(f"weights {list(result.weights)} != built-in divisors {case['weights']}")
        exps = [0] * len(result.order)
        for w, idx in zip(result.weights, result.order):
            exps[idx] = w
        n = len(exps)
        middle = [[{exps[i]: Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]
        left = _loop_dicts(laurent.loop_to_json(result.left))
        right = _loop_dicts(laurent.loop_to_json(result.right))
        if gen.matmul(gen.matmul(left, middle), right) != _loop_dicts(case["loop"]):
            problems.append("left * t^A * right does not reassemble the input loop")
    elif cmd == "chow":
        _, check = result
        if check is not None:
            if not check.quad_error <= 1e-6:
                problems.append(f"quad_error {check.quad_error:g} > tol 1e-6")
            if check.satisfied != (check.slack >= -1e-6):
                problems.append("inequality_satisfied disagrees with the slack")
    elif cmd == "futaki":
        if len(result["tau_coefficients"]) != result["dim"] + 2:
            problems.append("tau polynomial has the wrong degree")
    elif cmd == "bergman":
        problems += _bergman_invariants(case, result)
    elif cmd == "moment":
        for k, res in result.items():
            m = res.matrix
            if not res.quad_error <= case["tol"]:
                problems.append(f"k={k}: quad_error {res.quad_error:g} > tol {case['tol']:g}")
            if not np.all(np.isfinite(m)) or abs(np.trace(m)) > 1e-10 or not np.allclose(
                m, m.conj().T, atol=1e-12
            ):
                problems.append(f"k={k}: moment matrix is not finite, trace-free and Hermitian")
    elif cmd == "balance":
        for k, res in result.items():
            if not res.converged or not res.residuals[-1] <= case["tol"]:
                problems.append(f"k={k}: not converged ({res.steps} steps, note {res.note!r})")
    return problems


def _radial_integral(f, tol=1e-11):
    """Integral over s in [0, inf) by Gauss-Legendre panels in x = s/(1+s)."""
    x, w = np.polynomial.legendre.leggauss(32)
    prev, panels = None, 4
    while panels <= 2048:
        edges = np.linspace(0.0, 1.0, panels + 1)
        h = np.diff(edges)
        nodes = (edges[:-1, None] + 0.5 * h[:, None] * (x[None, :] + 1.0)).ravel()
        weights = (0.5 * h[:, None] * w[None, :]).ravel()
        s = nodes / (1.0 - nodes)
        cur = math.fsum(weights * f(s) / (1.0 - nodes) ** 2)
        if prev is not None and abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev, panels = cur, panels * 2
    raise ArithmeticError("normalization integral did not converge")


def _bergman_invariants(case, result):
    from kstab import bergman

    metric, grid = result["metric"], result["grid"]
    problems = []
    for k, r in result["rho"].items():
        norms = bergman.gram(metric, k)
        if not np.allclose(r, bergman.rho(metric, k, grid, norms), rtol=1e-12, atol=0.0):
            problems.append(f"k={k}: rho is not reproducible from the Gram norms")
        problems += _normalization(metric, k, norms)
        tv = result["theta_tv"][k]
        if not (math.isfinite(tv) and tv >= 0.0):
            problems.append(f"k={k}: theta total variation {tv!r}")
    target = bergman.scalar_curvature(metric, grid) / 2.0
    rel = float(np.max(np.abs(result["a1"] - target) / np.abs(target)))
    if not rel <= 0.05:
        problems.append(f"a1 differs from S/2 by {rel:.2%} > 5%")
    return problems


def _normalization(metric, k, norms):
    """c09: the integral of rho_k against the k-scaled volume is k + 1."""
    from kstab import bergman

    val = _radial_integral(lambda s: bergman.rho(metric, k, s, norms) * k * metric.density(s))
    if abs(val - (k + 1)) <= 1e-8:
        return []
    return [f"k={k}: normalization integral off by {abs(val - (k + 1)):g}"]


def probe(spec):
    """Problems of one untimed known-defect probe (none once it is fixed)."""
    from kstab import bergman

    metric = bergman.metric_from_json(spec["metric"])
    norms = bergman.gram(metric, spec["k"])
    if not (np.all(np.isfinite(norms)) and np.all(norms > 0)):
        return ["Gram norms not finite and positive"]
    return _normalization(metric, spec["k"], norms) if spec["kind"] == "normalization" else []


# -- CLI outputs ---------------------------------------------------------------


def _read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def cli_summary(case, stdout):
    """Canonical exact outputs and reference-compared floats of a CLI run."""
    cmd = case["command"]
    if cmd in ("factorize", "futaki"):
        return {"exact": {"report": json.loads(stdout)}}
    if cmd == "chow":
        data = json.loads(stdout)
        approx = {k: data.pop(k) for k in ("pairing", "slack") if k in data}
        data.pop("quad_error", None)
        return {"exact": data, "approx": approx}
    if cmd == "moment":
        data = json.loads(stdout)
        return {"exact": {"order": data["order"]},
                "approx": {"matrix:re": data["matrix_re"], "matrix:im": data["matrix_im"],
                           "volume": data["volume"]}}
    if cmd == "balance":
        return {}
    if cmd == "bergman":
        if stdout.lstrip().startswith("{"):
            data = json.loads(stdout)
            rho = {str(k): data["rho"][str(k)][::RHO_STRIDE] for k in data["k"]}
            tv = [data["theta_tv"][str(k)] for k in data["k"]]
            a1 = data["a1_fit"][::RHO_STRIDE]
            ks = data["k"]
        else:
            rows = _read_csv(stdout)
            ks = sorted({int(r["k"]) for r in rows})
            per_k = {k: [r for r in rows if int(r["k"]) == k] for k in ks}
            rho = {str(k): [float(r["rho"]) for r in per_k[k]][::RHO_STRIDE] for k in ks}
            tv = [float(per_k[k][0]["theta_tv"]) for k in ks]
            a1 = [float(r["a1_fit"]) for r in per_k[ks[0]]][::RHO_STRIDE]
        approx = {f"rho:{k}": v for k, v in rho.items()}
        approx.update({"theta_tv": tv, "a1": a1})
        return {"exact": {"k": ks}, "approx": approx}
    if cmd == "verify":
        lines = stdout.strip().splitlines()
        status = [re.match(r"\[\s*\d+\]\s+(PASS|FAIL \(known\)|FAIL)\s", line).group(1)
                  for line in lines[:-1]]
        return {"exact": {"status": status, "total": lines[-1]}}
    return {}


def cli_invariants(case, stdout):
    cmd = case["command"]
    problems = []
    if cmd == "chow":
        data = json.loads(stdout)
        if "quad_error" in data and not data["quad_error"] <= 1e-6:
            problems.append(f"quad_error {data['quad_error']:g} > tol 1e-6")
    elif cmd == "moment":
        data = json.loads(stdout)
        if not data["quad_error"] <= 1e-8:
            problems.append(f"quad_error {data['quad_error']:g} > tol 1e-8")
    elif cmd == "balance":
        residual = float(_read_csv(stdout)[-1]["residual"])
        if not residual <= 1e-8:
            problems.append(f"final residual {residual:g} > tol 1e-8")
    return problems
