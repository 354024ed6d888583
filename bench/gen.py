"""Seeded input generator for the benchmark workloads.

Everything here is plain Python with exact ``Fraction`` arithmetic and never
imports ``kstab``: the program under test only ever sees the JSON this
module writes, so the parent commit and a change receive byte-identical
inputs for the same seed.

Loops are invertible by construction, ``g = L * t^D * U`` with ``L`` lower
and ``U`` upper triangular polynomial matrices whose diagonals are nonzero
constants.  Both factors are invertible over the power series ring, so the
elementary divisors of ``g`` at ``t = 0`` are exactly ``D``; the oracle uses
that as an independent check on ``factorize``.

The benchmark's figures are compared across seeds, so the seed changes the
values of the inputs but not the work they cost.  Each case has a fixed base
(drawn from a generator keyed by the case, not the seed), and the seed then
applies a cost-neutral change: a sign change of coordinates ``x -> S x``
(``S`` diagonal with entries +-1) to loops and forms, a common shift of all
generator weights, and an ``epsilon`` drawn from a narrow band for metrics.
Every number the program meets keeps its size, so the arithmetic is the
same and only signs, weight offsets and metric values move.  Seeds that
agree modulo ``INPUT_VARIANTS`` give the same inputs, and the references in
``bench/refs/`` cover every variant, so every seed's outputs are checked
against a reference.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

WORKLOADS = ("cli_shipped", "exact_dense", "numeric_levels")
# Number of distinct inputs per seeded workload; the seed picks one.
INPUT_VARIANTS = 128

# Case sizes.  Each seeded workload runs its own family at "full" size and
# the other family at "small" size, so that every per-command total is
# nonzero on every workload and the small, sparse paths stay measured.
# "smoke" is a toy size that only has to reach every code path.
# A quartic's loop entries are polynomials of ``quartic_terms`` terms; the
# Laurent expansion of the transformed form, which dominates chow_weight,
# grows steeply with that degree.  A weight system is (dimension, spread of
# its generator weights).
EXACT_SIZES = {
    "full": {"factorize_n": (8, 8, 9, 9, 10, 10), "quartics": 2, "quartic_terms": 2,
             "plane_degrees": (2, 2, 3, 3),
             "weight_systems": ((9, 5), (10, 5), (11, 5), (11, 3))},
    "small": {"factorize_n": (7, 7, 8), "quartics": 1, "quartic_terms": 1,
              "plane_degrees": (2, 3), "weight_systems": ((9, 5), (10, 5))},
    "smoke": {"factorize_n": (3,), "quartics": 0, "quartic_terms": 1, "plane_degrees": (2,),
              "weight_systems": ((2, 5),)},
}
NUMERIC_SIZES = {
    "full": {"metrics": 4, "bergman_ks": (16, 32, 64, 128, 256, 512), "grid": 400,
             "moment_ks": (32, 64), "balance_ks": (8, 12, 16)},
    "small": {"metrics": 1, "bergman_ks": (16, 32, 64, 128, 256), "grid": 200,
              "moment_ks": (16, 32), "balance_ks": (4, 6, 8)},
    "smoke": {"metrics": 1, "bergman_ks": (8, 16, 32), "grid": 20,
              "moment_ks": (4,), "balance_ks": (3,)},
}

# The shipped inputs and the README command lines run on them.
SHIPPED = [
    ("factorize", ["factorize", "--input", "data/conic_loop.json"]),
    ("futaki", ["futaki", "--input", "data/conic_weights.json", "--k", "1:10"]),
    ("chow", ["chow", "--input", "data/conic_form.json", "--loop", "data/conic_loop.json"]),
    ("moment", ["moment", "--input", "data/line_cycle.json", "--order", "48"]),
    ("moment", ["moment", "--input", "data/rnc3_cycle.json", "--order", "48"]),
    ("balance", ["balance", "--input", "data/rnc3_distorted_cycle.json", "--tol", "1e-8",
                 "--max-steps", "500", "--format", "csv"]),
    ("bergman", ["bergman", "--input", "data/bump_metric.json", "--k", "8:64:double",
                 "--grid", "100", "--format", "csv"]),
    ("bergman", ["bergman", "--input", "data/bump_metric.json", "--k", "16:1024:double",
                 "--grid", "400"]),
    ("verify", ["verify"]),
]
SHIPPED_SMOKE = [
    SHIPPED[0], SHIPPED[1], SHIPPED[2], SHIPPED[3], SHIPPED[5],
    ("bergman", ["bergman", "--input", "data/bump_metric.json", "--k", "8:32:double",
                 "--grid", "20", "--format", "csv"]),
    ("verify", ["verify", "--only", "3,4"]),
]
# Known defects kept visible, run untimed after the timed cases: the Gram
# quadrature fails at k = 2048 with "nonpositive squared norm", and at
# k = 1024 its densities miss the c09 normalization identity by ~1e-4.
PROBE_CLI = ["bergman", "--input", "data/bump_metric.json", "--k", "2048"]
PROBES = (("gram", 2048), ("normalization", 1024))


# -- exact Laurent arithmetic on {exponent: Fraction} dicts -------------------


def _padd(a, b):
    out = dict(a)
    for e, v in b.items():
        w = out.get(e, 0) + v
        if w:
            out[e] = w
        else:
            out.pop(e, None)
    return out


def _pmul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                if a[i][k] and b[k][j]:
                    acc = _padd(acc, _pmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def loop_to_json(m):
    """Loop dict-matrix to the program's ``{"size", "entries"}`` schema."""
    return {
        "size": len(m),
        "entries": [
            [[e, v.numerator, v.denominator] for e, v in sorted(p.items())]
            for row in m
            for p in row
        ],
    }


def _random_poly(rng, terms):
    """Exactly ``terms`` monomials t^0 .. t^(terms-1), nonzero coefficients."""
    return {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for e in range(terms)}


def dense_loop(rng, n, terms=1):
    """Dense invertible loop and its elementary divisors, largest first."""
    diag = [Fraction(rng.choice([1, -1, 2, -2]), rng.choice([1, 2])) for _ in range(n)]
    low = [
        [{0: diag[i]} if i == j else (_random_poly(rng, terms) if i > j else {})
         for j in range(n)]
        for i in range(n)
    ]
    up = [
        [{0: Fraction(1)} if i == j else (_random_poly(rng, terms) if i < j else {})
         for j in range(n)]
        for i in range(n)
    ]
    d = [(i % 5) - 2 for i in range(n)]
    mid = [[{d[i]: Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]
    return matmul(matmul(low, mid), up), sorted(d, reverse=True)


def signs_for(rng, n):
    return [rng.choice([1, -1]) for _ in range(n)]


def sign_loop(g, signs):
    """``S g S``: the loop in the coordinates ``x -> S x``."""
    n = len(g)
    return [[{e: v * signs[i] * signs[j] for e, v in g[i][j].items()} for j in range(n)]
            for i in range(n)]


def sign_form(form, signs):
    """``F(S x)`` for a form in the ``{"form": {"a,b,c": [re, im]}}`` schema."""
    out = {}
    for key, (re, im) in form["form"].items():
        flip = 1
        for s, e in zip(signs, map(int, key.split(","))):
            flip *= s ** e
        out[key] = [re * flip, im * flip]
    return {"form": out}


def dense_form(rng, nvars, degree):
    """Every monomial of the given degree with a nonzero integer coefficient."""
    form = {}
    for exps in itertools.product(range(degree + 1), repeat=nvars):
        if sum(exps) == degree:
            c = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
            form[",".join(map(str, exps))] = [c, 0]
    return {"form": form}


def weight_system(dim, kind, spread, shift):
    """A fixed generator multiset, shifted by ``shift``: weights ``0 .. spread - 1``
    (projective) or ``0 .. spread - 2`` (hypersurface)."""
    if kind == "projective":
        gens = [shift + i % spread for i in range(dim + 1)]
        return {"dim": dim, "generators": gens, "geometry": {"type": "projective"}}
    gens = [shift + i % (spread - 1) for i in range(dim + 2)]
    return {
        "dim": dim,
        "generators": gens,
        "geometry": {"type": "hypersurface", "degree": 2, "initial_weight": gens[1] + gens[2]},
    }


# (a, b) of the bump s (a + b s) / (1+s)^3 of each metric role: distinct
# shapes, so no metric is built twice in one worker, and a != b so that no
# bump cancels to a simpler rational function.
METRIC_SHAPES = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3))


def rational_metric(rng, role):
    """u = log(1+s) + eps * s (a + b s) / (1+s)^3, a bump that decays like 1/s.

    The Gram quadrature fails well below k = 1024 once eps * max(a, b)
    exceeds about 0.2, so the amplitude stays at or below 0.15.
    """
    a, b = METRIC_SHAPES[role]
    return {
        "epsilon": rng.randint(35, 45) / 1000,
        "bump": {"type": "rational", "num": [0, a, b], "den": [1, 3, 3, 1]},
    }


def exact_cases(rng, size):
    cases = []

    def base(case_id):
        return random.Random(f"base:{case_id}")

    for i, n in enumerate(size["factorize_n"]):
        case_id = f"factorize-n{n}-{i}"
        g, divisors = dense_loop(base(case_id), n)
        cases.append({"id": case_id, "command": "factorize",
                      "loop": loop_to_json(sign_loop(g, signs_for(rng, n))), "weights": divisors})
    shapes = [(f"chow-quartic-{i}", 4, 4, size["quartic_terms"]) for i in range(size["quartics"])]
    shapes += [(f"chow-plane-d{d}-{i}", 3, d, 2) for i, d in enumerate(size["plane_degrees"])]
    for case_id, nvars, degree, terms in shapes:
        b = base(case_id)
        g, _ = dense_loop(b, nvars, terms=terms)
        form = dense_form(b, nvars, degree)
        signs = signs_for(rng, nvars)
        cases.append({"id": case_id, "command": "chow", "form": sign_form(form, signs),
                      "loop": loop_to_json(sign_loop(g, signs))})
    shift = rng.randint(0, 40)
    for dim, spread in size["weight_systems"]:
        for kind in ("projective", "hypersurface"):
            cases.append({"id": f"futaki-{kind}-{dim}-w{spread}", "command": "futaki",
                          "system": weight_system(dim, kind, spread, shift), "kmax": 10})
    return cases


def numeric_cases(rng, size):
    cases = [{"id": f"bergman-{i}", "command": "bergman", "metric": rational_metric(rng, i),
              "ks": list(size["bergman_ks"]), "grid": size["grid"]}
             for i in range(size["metrics"])]
    metric = rational_metric(rng, len(METRIC_SHAPES) - 1)
    cases.append({"id": "moment-image", "command": "moment", "metric": metric,
                  "ks": list(size["moment_ks"]), "order": 48, "tol": 1e-8})
    cases.append({"id": "balance-image", "command": "balance", "metric": metric,
                  "ks": list(size["balance_ks"]), "order": 32, "tol": 1e-8, "max_steps": 500})
    return cases


def generate(workload, seed, smoke=False, bump_metric=None):
    """Inputs of one workload: ``{"workload", "seed", "cases", "probes"}``.

    ``bump_metric`` is the shipped ``data/bump_metric.json`` object, the
    metric of the in-process probes.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed % INPUT_VARIANTS}")
    out = {"workload": workload, "seed": seed, "smoke": smoke}
    if workload == "cli_shipped":
        out["cases"] = [{"id": f"{i:02d}-{cmd}", "command": cmd, "argv": argv}
                        for i, (cmd, argv) in enumerate(SHIPPED_SMOKE if smoke else SHIPPED)]
        out["probes"] = [{"id": "probe-bergman-2048", "command": "bergman", "argv": PROBE_CLI}]
        return out
    if smoke:
        exact, numeric = "smoke", "smoke"
    elif workload == "exact_dense":
        exact, numeric = "full", "small"
    else:
        exact, numeric = "small", "full"
    out["cases"] = (exact_cases(rng, EXACT_SIZES[exact])
                    + numeric_cases(rng, NUMERIC_SIZES[numeric]))
    out["probes"] = [{"id": f"probe-{kind}-{k}", "kind": kind, "metric": bump_metric, "k": k}
                     for kind, k in PROBES]
    return out

