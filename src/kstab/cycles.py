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

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from kstab.poly import json_int, json_list, json_number
from kstab.quadrature import QuadratureError, csum, disc_radii, disc_rule

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
    def degree(self) -> int:
        """Nominal degree: largest power with a nonzero coefficient."""
        nz = np.nonzero(np.any(self.coeffs != 0, axis=0))[0]
        if len(nz) == 0:
            raise ValueError("component has identically zero parametrization")
        return int(nz[-1])


@dataclass
class ProjectiveCycle:
    """Weighted union of parametrized rational curves in P^N."""

    ambient_dim: int
    components: List[Component]

    def __post_init__(self):
        if not self.components:
            raise ValueError("cycle has no parametrized components")
        for c in self.components:
            if c.coeffs.shape[0] != self.ambient_dim + 1:
                raise ValueError(
                    f"component has {c.coeffs.shape[0]} coordinates, ambient needs "
                    f"{self.ambient_dim + 1}"
                )

    @property
    def total_degree(self) -> int:
        return sum(c.multiplicity * c.degree for c in self.components)


@dataclass
class MomentResult:
    matrix: np.ndarray          # trace-free, divided by V
    volume: float               # total mass from quadrature
    quad_error: float           # order-doubling estimate on matrix entries
    order: int


def _kernel(d: int, s: np.ndarray) -> np.ndarray:
    """Chart values per coefficient of a degree-d curve at the nodes ``s``.

    Four blocks of ``len(s)`` columns side by side: the monomials s^j
    (row j = 0..d), their reversal s^(d-j) for the chart at infinity
    s^d p(1/s), and the derivatives of both.  A coefficient array ``c`` of
    shape (N+1, d+1) has its values and derivatives on both charts in
    ``c @ _kernel(d, s)``, and the integrand is smooth on each closed disc.
    """
    m = len(s)
    kernel = np.empty((d + 1, 4 * m), dtype=complex)
    powers, reverse, deriv, deriv_reverse = (kernel[:, i * m:(i + 1) * m] for i in range(4))
    powers[0] = 1.0
    for j in range(1, d + 1):
        np.multiply(powers[j - 1], s, out=powers[j])
    reverse[:] = powers[::-1]
    deriv[0] = 0.0
    np.multiply(np.arange(1, d + 1)[:, None], powers[:-1], out=deriv[1:])
    deriv_reverse[:] = deriv[::-1]
    return kernel


# Nodes per kernel in _cycle_raw: bounds the kernel and the (N+1) x nodes
# chart arrays of large cycles at high order.
_BLOCK = 1024

# Columns count as orthogonal in _cycle_raw when |c_i^H c_j| <= _ORTHOGONAL
# |c_i| |c_j|: then |U^H U - I| <= (deg + 1) _ORTHOGONAL, which moves |p|^2,
# |p'|^2, <p', p> and the moments by that relative roundoff at most.
_ORTHOGONAL = 1e-14
_TINY = float(np.finfo(float).tiny)  # the least normal double
_RANGE = float(1 / np.sqrt(_TINY))  # past this moduli ratio the smaller squares below any normal


def _monomial_raw(comp: Component, order: int):
    """Raw second moments and mass of a component whose rows are monomials
    c_a s^(e_a), by ``disc_rule(order)`` with its angular sum in closed form:
    on each chart (exponents e_a, or d - e_a at infinity) |p_a|^2 and the
    density sum_(a,b) |p_a p_b|^2 (e_a - e_b)^2 / (2 rho |p|^4) (Lagrange's
    identity) depend on rho = |s|^2 alone, and the mean of p_a conj(p_b) over
    the m angles is its modulus times [e_a = e_b mod m], aliasing included."""
    (rho, wrho, m), d = disc_radii(order), comp.degree  # an all-zero component, empty or not, fails on its degree
    e = np.argmax(comp.coeffs != 0, axis=1)  # a zero row has e = 0 and c = 0
    c = comp.coeffs[np.arange(len(e)), e]
    raw, mass = 0.0, 0.0
    for ex in (e, d - e):
        q = np.sqrt(rho)[:, None] ** ex  # |s^e| per radius and row
        norm2 = q**2 @ np.abs(c) ** 2
        if np.any(norm2 == 0.0):
            raise QuadratureError("parametrization with base points: |p(s)| = 0")
        q /= np.sqrt(norm2)[:, None]
        v = q**2 * np.abs(c) ** 2
        wk = wrho * np.sum((v @ (ex[:, None] - ex) ** 2) * v, axis=1) / (2 * rho)
        raw = raw + (q * wk[:, None]).T @ q
        mass += csum(wk)
    raw = np.outer(c, c.conj()) * (0.5 * (raw + raw.T)) * ((e[:, None] - e) % m == 0)
    return comp.multiplicity * raw, comp.multiplicity * mass


def _pow2_scaled(c: np.ndarray, top: float):
    """c and ``top``, its largest modulus, times the power of two that brings ``top`` into [1, 2): exact."""
    if not (n := 1 - math.frexp(top)[1]):
        return c, top
    return np.ldexp(np.ascontiguousarray(c).view(float), n).view(complex), math.ldexp(top, n)


def _cycle_raw(cycle: ProjectiveCycle, order: int):
    """Raw second moments (Hermitian) and mass of a cycle.  Each component is
    first scaled, exactly, by the power of two that brings its largest
    coefficient modulus into [1, 2), which leaves its curve in P^N and so its
    moments alone, or refused if its moduli span more than ``_RANGE``; then ``_monomial_raw``
    for each component whose rows hold at most one nonzero coefficient each
    and, via U M with U = c_j / |c_j| isometric and M = (|c_j| s^j), for one
    whose columns c_j are orthogonal (the same rule up to roundoff); for the
    others the charts ``c @ _kernel(d, s)`` of its coefficients ``c`` on
    each block ``s`` of at most ``_BLOCK`` disc nodes."""
    n1 = cycle.ambient_dim + 1
    raw, mass, dense = np.zeros((n1, n1), dtype=complex), 0.0, []
    for comp in cycle.components:
        mod = np.abs(comp.coeffs)
        top, bottom = float(mod.max(initial=0.0)), float(mod[mod > 0].min(initial=np.inf))  # all zero: fails on degree
        if not top / bottom <= _RANGE:  # a modulus above the largest double reads inf, and is refused too
            raise QuadratureError(f"coefficient moduli {top:.3g} and {bottom:.3g} of one component differ by more "
                                  f"than {_RANGE:.3g}: scaled to the larger, the smaller squares below the least "
                                  "normal double")
        if (c := _pow2_scaled(comp.coeffs, top)[0]) is not comp.coeffs:
            comp = Component(c, comp.multiplicity)
        if np.count_nonzero(comp.coeffs, axis=1).max() <= 1:
            part_raw, part_mass = _monomial_raw(comp, order)
        else:
            c = comp.coeffs[:, :comp.degree + 1]
            norms = np.linalg.norm(c, axis=0)
            if np.any(np.abs(np.triu(c.conj().T @ c, 1)) > _ORTHOGONAL * np.outer(norms, norms)):
                dense.append((comp.multiplicity, c))
                continue
            u = c / np.where(norms > 0, norms, 1.0)  # orthonormal nonzero columns
            part_raw, part_mass = _monomial_raw(Component(np.diag(norms), comp.multiplicity), order)
            part_raw = u @ part_raw @ u.conj().T
            part_raw = 0.5 * (part_raw + part_raw.conj().T)
        raw, mass = raw + part_raw, mass + part_mass
    if not dense:
        return raw, mass
    nodes, w = disc_rule(order)
    buffer = np.empty(4 * n1 * _BLOCK, dtype=complex)  # chart values: a fresh array per block costs page faults
    for lo in range(0, len(nodes), _BLOCK):
        s = nodes[lo:lo + _BLOCK]
        m2 = 2 * len(s)
        w2 = np.concatenate([w[lo:lo + _BLOCK]] * 2)  # both charts
        vals = buffer[:2 * m2 * n1].reshape(n1, 2 * m2)
        block_raw, block_mass = np.zeros((n1, n1), dtype=complex), 0.0
        for mult, c in dense:
            np.matmul(c, _kernel(c.shape[1] - 1, s), out=vals)
            p, dp = vals[:, :m2], vals[:, m2:]
            pc = p.conj()
            norm2 = np.sum(np.abs(p) ** 2, axis=0)
            if np.any(norm2 == 0.0):
                raise QuadratureError("parametrization with base points: |p(s)| = 0")
            dp -= (np.sum(dp * pc, axis=0) / norm2) * p  # p' minus its projection on p: no cancellation
            kappa = np.sum(dp.real**2 + dp.imag**2, axis=0) / norm2  # FS density / pi, >= 0
            wk = w2 * kappa
            block_raw += mult * ((p * (wk / norm2)) @ pc.T)
            block_mass += mult * csum(wk)
        raw += 0.5 * (block_raw + block_raw.conj().T)  # Hermitian by construction up to roundoff
        mass += block_mass
    return raw, mass


def trace_free(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    return m - (np.trace(m) / n) * np.eye(n, dtype=m.dtype)


def moment_matrix(cycle: ProjectiveCycle, order: int = 48, tol: float = 1e-8) -> MomentResult:
    """Trace-free second-moment matrix of a cycle, with error estimate.

    The quadrature is run at ``order`` and ``2 * order``; the reported
    error is the largest entrywise difference.  If it exceeds ``tol`` the
    quadrature is considered non-convergent, and so it is when the mass
    differs from the total degree by more than max(1e-6, 100 * error)
    (a sign of base points).  Monomial curves and their unitary images (as
    the lines of a central fiber) take ``_cycle_raw``'s closed form.
    """
    raw1, _ = _cycle_raw(cycle, order)
    raw2, mass2 = _cycle_raw(cycle, 2 * order)
    err = float(np.max(np.abs(raw2 - raw1)))
    if err > tol:
        raise QuadratureError(
            f"moment quadrature error estimate {err:g} exceeds tol {tol:g}; "
            "increase the order"
        )
    if abs(mass2 - cycle.total_degree) > max(1e-6, 100 * err):
        raise QuadratureError(
            f"cycle mass {mass2:.12g} does not match nominal degree "
            f"{cycle.total_degree}; parametrization may have base points"
        )
    v = float(cycle.total_degree)
    return MomentResult(matrix=trace_free(raw2 / v), volume=mass2, quad_error=err / v, order=2 * order)


def pairing(m: np.ndarray, a) -> float:
    """<M, A> = sum_a M_aa A_a for the diagonal A with entries ``a``."""
    m = np.asarray(m)
    a = np.asarray(a)
    if a.shape != (m.shape[0],):
        raise ValueError("size mismatch between matrix and weight vector")
    return float(np.real(np.sum(np.diagonal(m) * a)))


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


# Differences kept by the Anderson mixing of balance_iterate.
_MEMORY = 6

_FLOOR, _STALL = 64 * np.finfo(float).eps, 5  # see balance_iterate

# Failures that make a balance evaluation invalid.
_BREAKDOWN = (QuadratureError, np.linalg.LinAlgError, FloatingPointError)


def _hermitian_fn(x: np.ndarray, fn) -> np.ndarray:
    """fn applied to the eigenvalues of a Hermitian matrix."""
    evals, evecs = np.linalg.eigh(x)
    return (evecs * fn(evals)) @ evecs.conj().T


def balance_iterate(
    cycle: ProjectiveCycle,
    max_steps: int = 500,
    tol: float = 1e-8,
    order: int = 32,
) -> BalanceResult:
    """Drive a cycle toward the zero of the moment map.

    The unknown is a Hermitian metric H = exp(x) on the homogeneous
    coordinates, x trace-free; its cycle is the input with coordinates z
    replaced by exp(x/2) z, each component rescaled to largest coefficient
    modulus one (exp(x/2) grows without bound off the span of a component
    that spans fewer coordinates than the ambient space).  The plain map (Donaldson's T-iteration) is
    H' = H^(1/2) (n1 raw)^(-1) H^(1/2), with raw the second-moment matrix
    of the cycle of H divided by its mass and n1 the number of
    coordinates.  Up to a unitary change of coordinates, which leaves the
    moment matrix's trace norm alone, it is the step z -> (n1 raw)^(-1/2) z,
    and its fixed points are the balanced metrics.

    The iteration is Anderson mixing (Walker and Ni, 2011) of the plain map
    on the real and imaginary parts of x, with a memory of ``_MEMORY``
    differences.  A mixed iterate is accepted only if its evaluation is
    valid, its raw matrix is positive definite, and its residual, the trace
    norm of the moment matrix, is below the current one.  Otherwise the
    history is cleared and the plain step is taken, so a step costs at most
    two moment evaluations.  An evaluation is invalid when a chart has a
    base point, a value is not finite, or the mass differs from the total
    degree by more than 1e-6 of it: a degree-d cycle has Fubini-Study mass
    d, so a drift is quadrature failure along a degenerating orbit.

    ``residuals`` holds one entry per accepted iterate, the input first,
    and ``steps`` counts the accepted steps.  ``transform`` is exp(x/2)
    scaled to largest eigenvalue one; it maps each input component to a
    multiple of the returned one.  Neither non-convergence within
    ``max_steps`` nor a breakdown raises: the run ends not converged, and
    when a plain step's evaluation is invalid, or an accepted iterate's raw
    matrix is not positive definite, ``note`` says why ("iteration broke
    down: ...").  Both signal an unstable or borderline cycle.  A residual
    below ``_FLOOR`` that ``_STALL`` accepted steps do not halve is at its
    floating-point floor: above ``tol``, it ends the run, and the note says so.

    Each evaluation is ``_cycle_raw`` at ``order``, as in ``moment_matrix``.
    """
    n1 = cycle.ambient_dim + 1
    degree = cycle.total_degree

    def components(half):
        out = []
        for comp in cycle.components:
            c = half @ comp.coeffs
            if (top := np.max(np.abs(c))) < _TINY:  # no finite reciprocal: scale as _cycle_raw does first
                c, top = _pow2_scaled(c, float(top))
            out.append(Component(c / top, comp.multiplicity))
        return out

    def evaluate(x):
        """Residual at the metric exp(x) and the plain map's image of x, or
        None for the image where the raw matrix is not positive definite."""
        with np.errstate(over="ignore", invalid="ignore"):  # overflows on degenerating orbits
            half = _hermitian_fn(x, lambda e: np.exp(e / 2))
            comps = components(half)
        if not all(np.all(np.isfinite(c.coeffs)) for c in comps):
            raise FloatingPointError("metric is not finite")
        raw, mass = _cycle_raw(ProjectiveCycle(cycle.ambient_dim, comps), order)
        if abs(mass - degree) > 1e-6 * degree:
            raise QuadratureError(f"cycle mass {mass:.9g} does not match degree {degree}")
        raw = raw / mass
        res = trace_norm(trace_free(raw))
        evals, evecs = np.linalg.eigh(raw)
        if not np.all(evals > 0):
            return res, None
        a = half @ ((evecs / (n1 * evals)) @ evecs.conj().T) @ half
        with np.errstate(divide="ignore", invalid="ignore"):
            image = trace_free(_hermitian_fn(0.5 * (a + a.conj().T), np.log))
        if not np.all(np.isfinite(image)):
            raise FloatingPointError("metric is not finite")
        return res, image

    def mixed(history):
        """Anderson extrapolation from (x, image) pairs as real vectors."""
        xs, gs = (np.array(v) for v in zip(*history))
        fs = gs - xs
        gamma = np.linalg.lstsq(np.diff(fs, axis=0).T, fs[-1], rcond=None)[0]
        v = gs[-1] - np.diff(gs, axis=0).T @ gamma
        x = v.view(complex).reshape(n1, n1)
        return 0.5 * (x + x.conj().T)

    x = np.zeros((n1, n1), dtype=complex)
    residuals: List[float] = []
    history: List[tuple] = []
    note = ""
    try:
        res, image = evaluate(x)
        residuals.append(res)
    except _BREAKDOWN as exc:
        note = f"iteration broke down: {exc}"
    while not note and residuals[-1] > tol and len(residuals) <= max_steps:
        if image is None:
            note = "iteration broke down: second-moment matrix lost positivity"
            break
        before, recent = min(residuals[:-_STALL], default=np.inf), min(residuals[-_STALL:])
        if min(before, recent) <= _FLOOR and recent > before / 2:
            note = f"residual at its floating-point floor {min(before, recent):.3e}, above tol {tol:.3g}"
            break
        history = (history + [(x.view(float).ravel(), image.view(float).ravel())])[-_MEMORY - 1:]
        if len(history) > 1:
            try:
                trial = mixed(history)
                res, trial_image = evaluate(trial)
            except _BREAKDOWN:
                trial_image = None
            if trial_image is not None and res < residuals[-1]:
                x, image = trial, trial_image
                residuals.append(res)
                continue
            history = history[-1:]
        try:
            res, next_image = evaluate(image)
        except _BREAKDOWN as exc:
            note = f"iteration broke down: {exc}"
            break
        x, image = image, next_image
        residuals.append(res)
    converged = bool(residuals) and residuals[-1] <= tol
    transform = _hermitian_fn(x, lambda e: np.exp((e - e.max()) / 2))
    return BalanceResult(
        ProjectiveCycle(cycle.ambient_dim, components(transform)),
        residuals, converged, max(len(residuals) - 1, 0), transform, note,
    )


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def cycle_from_json(obj) -> ProjectiveCycle:
    """Parse {"ambient": N, "components": [{"coeffs": [[[re,im],...],...],
    "multiplicity": m}, ...]}; each component's coeffs has one list of
    [re, im] pairs per homogeneous coordinate, ascending in the parameter.
    """
    ambient = json_int(obj["ambient"], "ambient")
    if ambient < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {ambient}")
    comps = []
    for i, c in enumerate(json_list(obj["components"], "components")):
        where = f"components[{i}] coeffs"
        if type(c) is not dict:
            raise ValueError(f"components[{i}] must be a JSON object, got {c!r:.40}")
        coords = [json_list(coord, where) for coord in json_list(c["coeffs"], where)]
        if any(type(p) is not list or len(p) != 2 for coord in coords for p in coord):
            raise ValueError(f"{where} must list [re, im] pairs per coordinate")
        arr = np.zeros((len(coords), max(map(len, coords), default=0)), dtype=complex)
        for row, coord in zip(arr, coords):
            row[:len(coord)] = [complex(json_number(re, "cycle coefficient"), json_number(im, "cycle coefficient"))
                                for re, im in coord]
        comp = Component(arr, json_int(c.get("multiplicity", 1), "multiplicity"))
        if comp.degree < 1:
            raise ValueError("component of degree 0: a curve needs a nonconstant parametrization")
        comps.append(comp)
    return ProjectiveCycle(ambient, comps)
