"""Acceptance suite: every headline property with its stated tolerance.

Each criterion is a callable returning a :class:`CriterionResult`; the
`verify` CLI command and the test suite both run this registry, so the
numbers printed by the command are exactly the numbers asserted in tests.

Criterion 11 (discrepancy-form decay window) is expected to fail and is
reported honestly: for a metric whose scalar curvature is not constant the
total variation of the discrepancy form decays like 1/k, because its
leading term is the first-order density fluctuation (a1 - mean a1)/k.
The k^-2 log k rate holds only when the scalar curvature is constant, and
constant-curvature circle-invariant metrics have identically zero
discrepancy, so no nontrivial radial test metric can realize the stated
window.  The README's acceptance section carries the same analysis.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

from kstab import bergman as bg
from kstab import chow as cw
from kstab import cycles as cy
from kstab import weights as wt
from kstab.laurent import (
    LaurentMatrix,
    LaurentPoly,
    _is_singular,
    factorize,
    multiply,
    section_degree,
)
from kstab.quadrature import radial_integral

__all__ = ["CriterionResult", "run_all", "CRITERIA", "format_table"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float
    expected_failure: bool = False


# ---------------------------------------------------------------------------
# shared generators (deterministic)
# ---------------------------------------------------------------------------


def _exponents_within_6(g: LaurentMatrix) -> bool:
    """Every nonzero entry's lowest and highest exponent lie in [-6, 6]."""
    degs = [f(p) for row in g.entries for p in row if not p.is_zero for f in (LaurentPoly.ord, LaurentPoly.deg)]
    return -6 <= min(degs) and max(degs) <= 6


def random_loop(rng: random.Random, size: int) -> LaurentMatrix:
    """Invertible random loop with entry exponents within [-6, 6]."""
    while True:
        entries = []
        for _ in range(size):
            row = []
            for _ in range(size):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    terms[rng.randint(-3, 3)] = rng.randint(-4, 4)
                row.append(LaurentPoly(terms))
            entries.append(row)
        if _is_singular(entries):
            continue
        g = LaurentMatrix(entries)
        if _exponents_within_6(g):
            return g


def structured_loop(rng: random.Random, size: int) -> LaurentMatrix:
    """Random elementary * t^D * elementary product, exponents in [-6, 6]."""

    def elem():
        m = LaurentMatrix.identity(size)
        if size == 1:
            return m
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(size), 2)
            add = [
                [
                    LaurentPoly({rng.randint(0, 2): rng.choice([-2, -1, 1, 2])})
                    if (a, b) == (i, j)
                    else (LaurentPoly({0: 1}) if a == b else LaurentPoly({}))
                    for b in range(size)
                ]
                for a in range(size)
            ]
            m = multiply(m, LaurentMatrix(add))
        return m

    while True:
        d = [rng.randint(-3, 3) for _ in range(size)]
        g = multiply(multiply(elem(), LaurentMatrix.exponent_diagonal(d)), elem())
        if _exponents_within_6(g):
            return g


CONIC_FORM = cw.HypersurfaceForm.from_dict(3, {(1, 0, 1): 1, (0, 2, 0): -1})


def conic_weight_system() -> wt.WeightSystem:
    return wt.WeightSystem(
        dim=1, generators=(0, 0, -1), geometry=wt.Geometry("hypersurface", 2, -1)
    )


def shipped_weight_suite() -> List[wt.WeightSystem]:
    """Twenty nontrivial normalized monomial configurations."""
    proj = wt.Geometry("projective")
    systems = [
        wt.WeightSystem(1, (0, 1), proj),
        wt.WeightSystem(1, (0, 2), proj),
        wt.WeightSystem(1, (0, 5), proj),
        wt.WeightSystem(1, (1, 0), proj),
        wt.WeightSystem(2, (0, 1, 1), proj),
        wt.WeightSystem(2, (0, 0, 3), proj),
        wt.WeightSystem(2, (0, 2, 5), proj),
        wt.WeightSystem(2, (0, 1, 4), proj),
        wt.WeightSystem(3, (0, 1, 2, 3), proj),
        wt.WeightSystem(3, (0, 0, 0, 1), proj),
        wt.WeightSystem(3, (0, 2, 2, 4), proj),
        wt.WeightSystem(1, (1, 1, 0), wt.Geometry("hypersurface", 2, 1)),
        wt.WeightSystem(1, (0, 0, 1), wt.Geometry("hypersurface", 2, 0)),
        wt.WeightSystem(1, (0, 1, 2), wt.Geometry("hypersurface", 2, 1)),
        wt.WeightSystem(1, (0, 0, 2), wt.Geometry("hypersurface", 2, 0)),
        wt.WeightSystem(1, (2, 0, 1), wt.Geometry("hypersurface", 2, 1)),
        wt.WeightSystem(1, (0, 1, 3), wt.Geometry("hypersurface", 3, 1)),
        wt.WeightSystem(2, (0, 1, 1, 2), wt.Geometry("hypersurface", 3, 2)),
        wt.WeightSystem(2, (0, 0, 1, 1), wt.Geometry("hypersurface", 2, 0)),
        wt.WeightSystem(2, (1, 0, 2, 1), wt.Geometry("hypersurface", 2, 1)),
    ]
    assert len(systems) == 20
    for s in systems:
        assert s.is_normalized and not s.is_trivial
    return systems


def rnc3_cycle(distort: Optional[np.ndarray] = None) -> cy.ProjectiveCycle:
    coeffs = np.zeros((4, 4), dtype=complex)
    coeffs[0, 0] = 1.0
    coeffs[1, 1] = math.sqrt(3)
    coeffs[2, 2] = math.sqrt(3)
    coeffs[3, 3] = 1.0
    if distort is not None:
        coeffs = np.asarray(distort, dtype=complex) @ coeffs
    return cy.ProjectiveCycle(3, [cy.Component(coeffs)])


def random_admissible_loop(rng: random.Random, size: int = 3):
    """t^A, with two distinct exponents at least, times a unit triangular factor within the degree bounds."""
    if size < 2:
        raise ValueError(f"an admissible loop needs size >= 2, got {size}")
    while True:
        a = sorted((rng.randint(-2, 2) for _ in range(size)), reverse=True)
        if len(set(a)) > 1:
            break
    zero, one = LaurentPoly({}), LaurentPoly({0: 1})
    r = [[one if i == j else zero for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i):
            bound = a[j] - a[i]
            if bound > 0 and rng.random() < 0.8:
                r[i][j] = LaurentPoly({e: rng.randint(-2, 2) for e in range(bound)})
    return multiply(LaurentMatrix.exponent_diagonal(a), LaurentMatrix(r)), tuple(a)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def c01_factorization_roundtrip() -> dict:
    rng = random.Random(101)
    checked = 0
    for trial in range(100):
        size = rng.randint(1, 4)
        g = random_loop(rng, size) if trial % 2 else structured_loop(rng, size)
        fac = factorize(g)
        assert fac.reassemble() == g, "round trip failed"
        ws = fac.weights
        assert all(ws[k] >= ws[k + 1] for k in range(len(ws) - 1)), "weights unsorted"
        sig = fac.order
        for i in range(size):
            for j in range(size):
                p = fac.right.entries[sig[i]][sig[j]]
                if i < j:
                    assert p.is_zero, "triangularity violated"
                elif i == j:
                    assert p == LaurentPoly({0: 1}), "diagonal not unit"
                elif not p.is_zero:
                    assert p.ord() >= 0 and p.deg() < ws[j] - ws[i], "degree bound"
        checked += 1
    return {"detail": f"{checked} loops reassembled exactly with bounds"}


def c02_section_degree_bounds() -> dict:
    rng = random.Random(202)
    checked = 0
    for trial in range(100):
        size = rng.randint(2, 4)
        g = structured_loop(rng, size)
        fac = factorize(g)
        lam0, lam_min = fac.weights[0], fac.weights[-1]
        # random arc
        gamma = [
            LaurentPoly({e: rng.randint(-3, 3) for e in range(rng.randint(1, 3))})
            for _ in range(size)
        ]
        if all(p.is_zero for p in gamma):
            gamma[0] = LaurentPoly({0: 1})
        if all(p.is_zero or p.coefficient(0) == 0 for p in gamma):
            gamma[rng.randrange(size)] += LaurentPoly({0: 1})
        d = section_degree(g, gamma)
        assert -lam0 <= d <= -lam_min, f"bound violated: {d} vs {(-lam0, -lam_min)}"
        # extremal arcs from the factorization
        ones = [LaurentPoly({0: 1})] * size
        gamma_plus = fac.rinv.apply(ones)
        assert section_degree(g, gamma_plus) == -lam_min, "gamma+ not extremal"
        e_top = [
            LaurentPoly({0: 1}) if i == fac.order[0] else LaurentPoly({})
            for i in range(size)
        ]
        gamma_minus = fac.rinv.apply(e_top)
        assert section_degree(g, gamma_minus) == -lam0, "gamma- not extremal"
        checked += 1
    return {"detail": f"{checked} loops: bounds hold, both extremes attained"}


def c03_gap_scaling() -> dict:
    systems = shipped_weight_suite() + [conic_weight_system()]
    count = 0
    for ws in systems:
        g1 = wt.gap(wt.induced_weights(ws, 1))
        for k in range(1, 11):
            gk = wt.gap(wt.induced_weights(ws, k))
            assert gk == k * g1, f"gap scaling failed at k={k}"
            count += 1
    return {"detail": f"{count} (system, level) pairs scale exactly"}


def c04_futaki_calibration() -> dict:
    proj1 = wt.Geometry("projective")
    trivial = wt.WeightSystem(2, (3, 3, 3), proj1)
    tau = wt.tau_poly(trivial)
    assert wt.futaki(tau) == 0, "trivial configuration has nonzero futaki"
    assert all(wt.chow_k(tau, k) == 0 for k in range(1, 11)), "Ch_k not identically 0"
    zero = wt.tau_poly(wt.WeightSystem(2, (0, 0, 0), proj1))
    assert all(c == 0 for c in zero.coeffs), "zero weights give nonzero tau"
    checked = 1
    for a in range(-4, 5):
        for b in range(-4, 5):
            ws = wt.WeightSystem(1, (a, b), proj1)
            tau = wt.tau_poly(ws)
            assert tau.volume == 1 and tau.alpha1 == 1
            assert wt.futaki(tau) == 0, f"nonzero futaki for diagonal ({a},{b})"
            checked += 1
    return {"detail": f"{checked} configurations give exactly zero"}


def c05_leading_sign() -> dict:
    values = []
    for ws in shipped_weight_suite():
        tau = wt.tau_poly(ws)
        i_val = wt.I_coefficient(tau)
        assert i_val < 0, f"I = {i_val} not negative for {ws.generators}"
        values.append(i_val)
    return {"detail": f"20 systems, I in [{min(values)}, {max(values)}], all < 0"}


def c06_equivariant_equality() -> dict:
    g = LaurentMatrix.exponent_diagonal([0, 0, 1])
    ch = cw.chow_weight(CONIC_FORM, g)
    assert ch == Fraction(1, 12)
    fiber = cw.central_fiber_cycle(CONIC_FORM, g)
    chk = cw.check_chow_inequality(g, fiber, ch, order=64)
    diff = abs(chk.slack)
    assert chk.quad_error <= 1e-8, f"quadrature error {chk.quad_error:g}"
    assert diff <= 1e-6, f"equality violated by {diff:g}"
    return {"detail": f"chow = {ch}, pairing = {chk.pairing:.12f}, diff = {diff:.2e}"}


def c07_pairing_bound() -> dict:
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        a = rng.integers(-5, 6, size=n).astype(float)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = 0.5 * (h + h.conj().T)
        m = cy.trace_free(m)
        lhs = abs(cy.pairing(m, a))
        rhs = 2.0 * wt.gap(a.astype(int)) * cy.trace_norm(m)
        worst = max(worst, lhs - rhs)
        assert lhs <= rhs + 1e-12, "pairing bound violated"
    return {"detail": f"200 pairs, max lhs-rhs = {worst:.3e}"}


def c08_chow_inequality_suite() -> dict:
    rng = random.Random(808)
    worst = float("inf")
    strict = 0
    for _ in range(50):
        g, _ = random_admissible_loop(rng)
        ch = cw.chow_weight(CONIC_FORM, g)
        fiber = cw.central_fiber_cycle(CONIC_FORM, g)
        chk = cw.check_chow_inequality(g, fiber, ch=ch, order=48, tol=1e-6)
        assert chk.satisfied, (
            f"inequality violated: chow {chk.chow} > pairing {chk.pairing}"
        )
        worst = min(worst, chk.slack)
        if chk.slack > 1e-6:
            strict += 1
    return {"detail": f"50 loops, worst slack {worst:.2e}, {strict} strict"}


def c09_bergman_normalization() -> dict:
    details, round_metric = [], bg.RadialMetric(0.0)
    for metric, name in ((round_metric, "round"), (bg.RadialMetric(0.1), "pert")):
        for k in (8, 16, 32, 64):
            val, _ = radial_integral(
                lambda s: bg.rho(metric, k, s) * k * metric.density(s),
                tol=1e-11,
            )
            diff = abs(val - (k + 1))
            assert diff <= 1e-8, f"{name} k={k}: integral off by {diff:g}"
            details.append(diff)
    grid = bg.default_grid(100)
    spread = 0.0
    for k in (8, 16, 32, 64):
        r = bg.rho(round_metric, k, grid)
        spread = max(spread, float(r.max() - r.min()))
        assert spread <= 1e-9, f"round density not constant at k={k}: {spread:g}"
    return {"detail": f"max integral defect {max(details):.2e}, round spread {spread:.2e}"}


def c10_expansion_coefficient() -> dict:
    grid = bg.default_grid(60, 0.1, 0.9)
    klist = [16, 24, 32, 48, 64]
    round_fit = bg.expansion_fit(bg.RadialMetric(0.0), klist, grid)
    err0 = float(np.max(np.abs(round_fit.a1 - 1.0)))  # S/2 = 1 for the round metric
    assert err0 <= 0.02, f"round coefficient off by {err0:g}"
    pert = bg.RadialMetric(0.1)
    fit = bg.expansion_fit(pert, klist, grid)
    target = bg.scalar_curvature(pert, grid) / 2.0
    rel = float(np.max(np.abs(fit.a1 - target) / np.abs(target)))
    assert rel <= 0.05, f"pointwise coefficient off by {rel:g}"
    return {
        "detail": (
            f"round |a1 - S/2| = {err0:.2e}; perturbed max rel err = {rel:.2%} "
            "(coefficient matches half the scalar curvature)"
        )
    }


def c11_theta_decay_window() -> dict:
    pert = bg.RadialMetric(0.1)
    ks = np.array([8.0, 16.0, 32.0, 64.0])
    tvs = np.array([bg.theta_total_variation(pert, int(k)) for k in ks])
    assert np.all(np.diff(tvs) < 0), "total variation not strictly decreasing"
    slope = float(np.polyfit(np.log(ks), np.log(tvs), 1)[0])
    detail = (
        f"slope {slope:.3f} outside [-2.3, -1.7]: first-order density "
        "fluctuation forces 1/k decay for non-constant curvature"
    )
    ok = -2.3 <= slope <= -1.7
    if not ok:
        raise AssertionError(detail)
    return {"detail": f"slope {slope:.3f} within window"}


def c12_moment_cross_check() -> dict:
    pert = bg.RadialMetric(0.1)
    worst = 0.0
    for k in (2, 3, 4):
        cyc = bg.image_cycle(pert, k)
        res = cy.moment_matrix(cyc, order=48)
        diag_cycle = np.real(np.diag(res.matrix))
        diag_bergman = np.array(
            [
                bg.moment_from_bergman(pert, k, np.eye(k + 1)[i]) - 1.0 / (k + 1)
                for i in range(k + 1)
            ]
        )
        diff = float(np.max(np.abs(diag_cycle - diag_bergman)))
        worst = max(worst, diff)
        assert diff <= 1e-6, f"k={k}: cross-module mismatch {diff:g}"
    return {"detail": f"k in 2..4, worst entrywise difference {worst:.2e}"}


def c13_balanced_iteration() -> dict:
    distorted = rnc3_cycle(np.diag([2.0, 1.0, 1.0, 1.0]))
    res = cy.balance_iterate(distorted, max_steps=500, tol=1e-8, order=32)
    assert res.converged, f"not converged: residual {res.residuals[-1]:g}"
    logs = np.log(np.array(res.residuals[5:]))
    assert np.all(np.diff(logs) < 0), "residual log not monotone after step 5"
    return {
        "detail": (
            f"converged in {res.steps} steps to {res.residuals[-1]:.2e}, "
            "monotone after step 5"
        )
    }


CRITERIA = [
    (1, "loop factorization round trip", c01_factorization_roundtrip, 5.0, False),
    (2, "section degree bounds and extremes", c02_section_degree_bounds, 5.0, False),
    (3, "weight gap scaling", c03_gap_scaling, 1.0, False),
    (4, "Futaki calibration zeros", c04_futaki_calibration, 1.0, False),
    (5, "leading coefficient sign", c05_leading_sign, 2.0, False),
    (6, "equivariant equality (conic)", c06_equivariant_equality, 10.0, False),
    (7, "pairing vs trace norm bound", c07_pairing_bound, 2.0, False),
    (8, "Chow inequality suite", c08_chow_inequality_suite, 60.0, False),
    (9, "density normalization", c09_bergman_normalization, 30.0, False),
    (10, "expansion coefficient", c10_expansion_coefficient, 60.0, False),
    (11, "discrepancy decay window", c11_theta_decay_window, 60.0, True),
    (12, "moment map cross check", c12_moment_cross_check, 30.0, False),
    (13, "balanced iteration", c13_balanced_iteration, 30.0, False),
]


def run_all(numbers=None) -> List[CriterionResult]:
    results = []
    for number, name, fn, budget, expected_failure in CRITERIA:
        if numbers and number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            out = fn()
            passed, detail = True, out["detail"]
        except AssertionError as exc:
            passed, detail = False, str(exc)
        elapsed = time.perf_counter() - t0
        results.append(
            CriterionResult(
                number=number,
                name=name,
                passed=passed,
                detail=detail,
                elapsed=elapsed,
                budget=budget,
                expected_failure=expected_failure,
            )
        )
    return results


def format_table(results: List[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else ("FAIL (known)" if r.expected_failure else "FAIL")
        lines.append(
            f"[{r.number:2d}] {status:12s} {r.elapsed:7.2f}s/{r.budget:4.0f}s  "
            f"{r.name}: {r.detail}"
        )
    npass = sum(r.passed for r in results)
    lines.append(f"{npass}/{len(results)} criteria passed")
    return "\n".join(lines)
