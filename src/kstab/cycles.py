"""Moment maps of projective cycles and the balanced-embedding iteration.

A cycle is a weighted union of rational curves in P^N, each given by an
(N+1)-tuple of univariate complex polynomials.  The moment matrix is the
trace-free matrix of second moments of the cycle against the Fubini-Study
volume (normalized so a line has mass one), divided by the total mass V.
A cycle is *balanced* when its moment matrix vanishes; the iteration
repeatedly applies the normalized inverse square root of the raw second
moment matrix, driving stable cycles to the balanced locus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List

import numpy as np

from kstab.quadrature import QuadratureError, csum, disc_rule

__all__ = [
    "Component",
    "ProjectiveCycle",
    "MomentResult",
    "BalanceResult",
    "moment_matrix",
    "pairing",
    "trace_norm",
    "trace_free",
    "balance_iterate",
    "transform_cycle",
    "cycle_from_json",
    "cycle_to_json",
]


@dataclass
class Component:
    """One rational curve: coefficient array of shape (N+1, deg+1)."""

    coeffs: np.ndarray
    multiplicity: int = 1

    def __post_init__(self):
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")

    @property
    def ambient_count(self) -> int:
        return self.coeffs.shape[0]

    @property
    def degree(self) -> int:
        """Nominal degree: largest power with a nonzero coefficient."""
        nz = np.nonzero(np.any(self.coeffs != 0, axis=0))[0]
        if len(nz) == 0:
            raise ValueError("component has identically zero parametrization")
        return int(nz[-1])

    def reversed(self) -> "Component":
        """Parametrization in the chart at infinity: s^deg * p(1/s)."""
        d = self.degree
        return Component(self.coeffs[:, d::-1], self.multiplicity)

    def eval(self, s: np.ndarray) -> np.ndarray:
        """Values, shape (N+1, len(s))."""
        return self.coeffs @ _powers(s, self.coeffs.shape[1] - 1)

    def eval_deriv(self, s: np.ndarray) -> np.ndarray:
        d = self.coeffs.shape[1] - 1
        if d == 0:
            return np.zeros((self.ambient_count, len(s)), dtype=complex)
        return (self.coeffs[:, 1:] * np.arange(1, d + 1)[None, :]) @ _powers(s, d - 1)


def _powers(s: np.ndarray, d: int) -> np.ndarray:
    """Monomials 1, s, ..., s^d at the points ``s``, shape (d+1, len(s))."""
    out = np.empty((d + 1, len(s)), dtype=complex)
    out[0] = 1.0
    for j in range(1, d + 1):
        np.multiply(out[j - 1], s, out=out[j])
    return out


@dataclass
class ProjectiveCycle:
    """Weighted union of parametrized rational curves in P^N."""

    ambient_dim: int
    components: List[Component] = field(default_factory=list)

    def __post_init__(self):
        for c in self.components:
            if c.ambient_count != self.ambient_dim + 1:
                raise ValueError(
                    f"component has {c.ambient_count} coordinates, ambient needs "
                    f"{self.ambient_dim + 1}"
                )

    @property
    def total_degree(self) -> int:
        return sum(c.multiplicity * c.degree for c in self.components)


@dataclass
class MomentResult:
    matrix: np.ndarray          # trace-free, divided by V
    raw: np.ndarray             # second moments divided by V (trace 1)
    volume: float               # total mass from quadrature
    quad_error: float           # order-doubling estimate on matrix entries
    order: int


# Nodes per block when a chart is evaluated for moment_matrix: bounds the
# (N+1) x nodes arrays of large cycles at high order.
_BLOCK = 4096


def _raw_moments(n1: int, charts):
    """Second-moment matrix (Hermitian) and mass summed over chart blocks.

    ``charts`` yields ``(multiplicity, p, dp, w)``: a chart's values ``p``
    and derivatives ``dp`` (shape (N+1, nodes)) at nodes of the disc rule
    with weights ``w``.  The chart at infinity of a curve is the chart of
    its reversed coefficient array, so the integrand is smooth on each
    closed disc.
    """
    raw = np.zeros((n1, n1), dtype=complex)
    mass = 0.0
    for mult, p, dp, w in charts:
        norm2 = np.sum(np.abs(p) ** 2, axis=0)
        if np.any(norm2 == 0.0):
            raise QuadratureError("parametrization with base points: |p(s)| = 0")
        dd = np.sum(dp * np.conj(dp), axis=0).real
        pd = np.sum(dp * np.conj(p), axis=0)
        kappa = (dd * norm2 - np.abs(pd) ** 2) / norm2**2  # FS density / pi
        wk = w * kappa
        raw += mult * ((p * (wk / norm2)) @ p.conj().T)
        mass += mult * csum(wk)
    return 0.5 * (raw + raw.conj().T), mass  # Hermitian by construction up to roundoff


def _cycle_raw(cycle: ProjectiveCycle, order: int):
    """Raw second moments and mass of a cycle, walking each chart of each
    component over blocks of ``_BLOCK`` nodes."""
    if not cycle.components:
        raise ValueError("cycle has no parametrized components")
    nodes, w = disc_rule(order)

    def charts():
        for comp in cycle.components:
            for part in (comp, comp.reversed()):
                for lo in range(0, len(nodes), _BLOCK):
                    s = nodes[lo:lo + _BLOCK]
                    yield comp.multiplicity, part.eval(s), part.eval_deriv(s), w[lo:lo + _BLOCK]

    return _raw_moments(cycle.ambient_dim + 1, charts())


def trace_free(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    return m - (np.trace(m) / n) * np.eye(n, dtype=m.dtype)


def moment_matrix(
    cycle: ProjectiveCycle,
    order: int = 48,
    tol: float = 1e-8,
    check_degree: bool = True,
) -> MomentResult:
    """Trace-free second-moment matrix of a cycle, with error estimate.

    The quadrature is run at ``order`` and ``2 * order``; the reported
    error is the largest entrywise difference.  If it exceeds ``tol`` the
    quadrature is considered non-convergent.
    """
    raw1, _ = _cycle_raw(cycle, order)
    raw2, mass2 = _cycle_raw(cycle, 2 * order)
    err = float(np.max(np.abs(raw2 - raw1)))
    if err > tol:
        raise QuadratureError(
            f"moment quadrature error estimate {err:g} exceeds tol {tol:g}; "
            "increase the order"
        )
    if check_degree and abs(mass2 - cycle.total_degree) > max(1e-6, 100 * err):
        raise QuadratureError(
            f"cycle mass {mass2:.12g} does not match nominal degree "
            f"{cycle.total_degree}; parametrization may have base points"
        )
    v = float(cycle.total_degree)
    raw = raw2 / v
    return MomentResult(
        matrix=trace_free(raw), raw=raw, volume=mass2, quad_error=err / v, order=2 * order
    )


def pairing(m: np.ndarray, a) -> float:
    """<M, A> = sum_a M_aa A_a for diagonal A; trace(M A) in general."""
    m = np.asarray(m)
    a = np.asarray(a)
    if a.ndim == 1:
        if a.shape[0] != m.shape[0]:
            raise ValueError("size mismatch between matrix and weight vector")
        return float(np.real(np.sum(np.diagonal(m) * a)))
    if a.shape != m.shape:
        raise ValueError("size mismatch between matrices")
    return float(np.real(np.trace(m @ a)))


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    eig = np.linalg.eigvalsh(np.asarray(m))
    return float(np.sum(np.abs(eig)))


def transform_cycle(cycle: ProjectiveCycle, g: np.ndarray) -> ProjectiveCycle:
    """Apply a linear map to homogeneous coordinates of every component."""
    g = np.asarray(g, dtype=complex)
    comps = [Component(g @ c.coeffs, c.multiplicity) for c in cycle.components]
    return ProjectiveCycle(cycle.ambient_dim, comps)


@dataclass
class BalanceResult:
    cycle: ProjectiveCycle
    residuals: List[float]
    converged: bool
    steps: int
    transform: np.ndarray
    note: str = ""


def balance_iterate(
    cycle: ProjectiveCycle,
    max_steps: int = 500,
    tol: float = 1e-8,
    order: int = 32,
) -> BalanceResult:
    """Drive a cycle toward the zero of the moment map.

    Each step replaces coordinates z by G z with G the normalized inverse
    square root of the raw second-moment matrix.  The trace norm of the
    moment matrix is recorded at every step.  Non-convergence within
    ``max_steps`` and numerical breakdown along a degenerating orbit are
    reported in the result, not raised: both signal an unstable or
    borderline cycle.

    The charts are linear in the coefficients.  The monomials 1, s, ...,
    s^deg of each component, and their reversal for the chart at infinity
    (reversal commutes with an invertible G, which keeps the degree), are
    evaluated at the disc nodes once per run; a step multiplies them by the
    current coefficients, one matrix product per component.  The
    coefficients are the input's times the steps' G, rescaled after each
    step to largest modulus one: a product of the G alone would overflow
    off the span of a component that spans fewer coordinates than the
    ambient space.
    """
    n1 = cycle.ambient_dim + 1
    if not cycle.components:
        raise ValueError("cycle has no parametrized components")
    nodes, w = disc_rule(order)
    m2 = 2 * len(nodes)
    w2 = np.concatenate([w, w])  # both charts in one block
    comps, kernels = [], []
    for comp in cycle.components:
        d = comp.degree
        basis = Component(np.eye(d + 1))
        rev = basis.reversed()
        kernels.append(np.hstack(
            [basis.eval(nodes), rev.eval(nodes), basis.eval_deriv(nodes), rev.eval_deriv(nodes)]
        ))
        comps.append(Component(comp.coeffs, comp.multiplicity))

    def charts():
        for comp, kernel in zip(comps, kernels):
            vals = comp.coeffs[:, :kernel.shape[0]] @ kernel
            yield comp.multiplicity, vals[:, :m2], vals[:, m2:], w2

    g_total = np.eye(n1, dtype=complex)
    residuals: List[float] = []
    converged, note, step = False, "", max_steps
    for step in range(max_steps + 1):
        try:
            raw, mass = _raw_moments(n1, charts())
            raw = raw / mass
            res = trace_norm(trace_free(raw))
        except (QuadratureError, np.linalg.LinAlgError, FloatingPointError) as exc:
            note = f"iteration broke down: {exc}"
            break
        residuals.append(res)
        if not np.isfinite(res):
            note = "iteration broke down: nonfinite residual"
            break
        converged = res <= tol
        if converged:
            break
        evals, evecs = np.linalg.eigh(raw)
        if np.any(evals <= 0):
            note = "second-moment matrix lost positivity"
            break
        g = evecs @ np.diag((n1 * evals) ** -0.5) @ evecs.conj().T
        with np.errstate(over="ignore", invalid="ignore"):  # overflows on degenerating orbits
            g_total = g @ g_total
        # projective rescale per component for numerical hygiene
        for c in comps:
            c.coeffs = g @ c.coeffs
            scale = np.max(np.abs(c.coeffs))
            if scale > 0:
                c.coeffs = c.coeffs / scale
    return BalanceResult(
        ProjectiveCycle(cycle.ambient_dim, comps), residuals, converged, step, g_total, note
    )


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def cycle_from_json(obj) -> ProjectiveCycle:
    """Parse {"ambient": N, "components": [{"coeffs": [[[re,im],...],...],
    "multiplicity": m}, ...]}; each component's coeffs has one list of
    [re, im] pairs per homogeneous coordinate, ascending in the parameter.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    ambient = int(obj["ambient"])
    if ambient < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {ambient}")
    comps = []
    for c in obj["components"]:
        rows = []
        for coord in c["coeffs"]:
            rows.append([complex(re, im) for re, im in coord])
        width = max(len(r) for r in rows)
        arr = np.zeros((len(rows), width), dtype=complex)
        for i, r in enumerate(rows):
            arr[i, : len(r)] = r
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        comp = Component(arr, int(c.get("multiplicity", 1)))
        if comp.degree < 1:
            raise ValueError("component of degree 0: a curve needs a nonconstant parametrization")
        comps.append(comp)
    if not comps:
        raise ValueError("cycle has no components")
    return ProjectiveCycle(ambient, comps)


def cycle_to_json(cycle: ProjectiveCycle) -> dict:
    comps = []
    for c in cycle.components:
        comps.append(
            {
                "coeffs": [
                    [[float(z.real), float(z.imag)] for z in coord]
                    for coord in c.coeffs
                ],
                "multiplicity": c.multiplicity,
            }
        )
    return {"ambient": cycle.ambient_dim, "components": comps}
