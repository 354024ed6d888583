"""Density of states for circle-invariant metrics on the Riemann sphere.

The metric is given by a radial potential u(s), s = |z|^2, with
u = log(1 + s) + eps * psi(s) for a decaying rational bump psi; the
associated area density is w = (s u')' (total mass one, the polarization
class is fixed).  w and the scalar curvature are rational functions of s,
derived once per metric in exact rational arithmetic (``kstab.poly``) and
evaluated by Horner's rule.
Level-k sections are the monomials z^j, orthogonal by circle invariance,
with squared norms computed by radial quadrature.  The density of states

    rho_k(s) = sum_j |z^j|^2_h / ||z^j||^2

is normalized so that its integral against the k-scaled volume form equals
the section-space dimension k + 1, and rho_k -> 1 with first correction
a1 / k where a1 is half the scalar curvature (S is normalized so the round
metric has S = 2).

All radial differentiation of rho_k uses the closed-form moment identities
of the weight distribution nu_s(j) proportional to s^j / ||z^j||^2 — the
pulled-back Fubini-Study density at level k is exactly Var_{nu_s}(j)/(k s) —
never finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from kstab import poly
from kstab.quadrature import QuadratureError, panel_rule, radial_integral

__all__ = [
    "RadialMetric",
    "scalar_curvature",
    "gram",
    "rho",
    "expansion_fit",
    "fs_pullback_form",
    "theta_total_variation",
    "moment_from_bergman",
    "image_cycle",
    "default_grid",
    "metric_from_json",
]

# Rational functions are pairs (num, den) of exact ascending coefficient
# lists, kept in lowest terms with a monic denominator; f[::-1] is 1/f.


def _ratio(num, den):
    g = poly.gcd(num, den)
    num, den = poly.quorem(num, g)[0], poly.quorem(den, g)[0]
    return [c / den[-1] for c in num], [c / den[-1] for c in den]


def _rdiff(f):
    p, q = f
    return _ratio(poly.add(poly.mul(poly.deriv(p), q), poly.mul(p, poly.deriv(q)), -1), poly.mul(q, q))


def _radd(f, g):
    return _ratio(poly.add(poly.mul(f[0], g[1]), poly.mul(g[0], f[1])), poly.mul(f[1], g[1]))


def _rmul(f, g):
    return _ratio(poly.mul(f[0], g[0]), poly.mul(f[1], g[1]))


def _reval(f, s):
    """Float evaluation of a rational function on an array of s-values."""
    return poly.evaluate([float(c) for c in f[0]], s) / poly.evaluate([float(c) for c in f[1]], s)


class RadialMetric:
    """Circle-invariant potential u(s) = log(1+s) + eps * psi(s).

    ``bump`` is a pair of ascending coefficient lists (num, den) of the
    rational function psi = num/den in s; the default is s/(1+s)^2.  The
    bump must decay so that s * psi'(s) -> 0; total area is then the same
    as for the round reference metric.
    """

    def __init__(self, epsilon: float = 0.0, bump=None, check_points: int = 400):
        self.epsilon = float(epsilon)
        num, den = bump if bump is not None else ([0, 1], [1, 2, 1])
        num, den = [Fraction(c) for c in num], [Fraction(c) for c in den]
        if not any(den):
            raise ValueError("bump denominator is the zero polynomial")
        self._psi = _ratio(num, den)
        # the exact rational eps keeps w and S exact
        eps = Fraction(self.epsilon).limit_denominator(10**9)
        self._eps = float(eps)
        # s u' = s/(1+s) + eps * s psi', then w = (s u')'
        su = _radd(([0, 1], [1, 1]), _rmul(([0, eps], [1]), _rdiff(self._psi)))
        self._w = _rdiff(su)
        # S = -(s (log w)')' / w with (log w)' = w'/w
        s_logw = _rmul(([0, 1], [1]), _rmul(_rdiff(self._w), self._w[::-1]))
        self._scal = _rmul(([-1], [1]), _rmul(_rdiff(s_logw), self._w[::-1]))
        # certificate: minimum of the density relative to the round one,
        # which stays bounded away from zero for genuine metrics
        x = np.linspace(1e-6, 1 - 1e-6, check_points)
        s = x / (1 - x)
        self.positivity_certificate = float(np.min(self.density(s) * (1.0 + s) ** 2))
        if not self.positivity_certificate > 0:  # NaN too: a pole in (0, inf)
            raise ValueError(
                f"potential is not a metric: density minimum "
                f"{self.positivity_certificate:g} <= 0 relative to round"
            )

    # evaluated callables ------------------------------------------------
    def u(self, s):
        s = np.asarray(s, dtype=float)
        return np.log1p(s) + self._eps * _reval(self._psi, s)

    def density(self, s):
        """Area density w(s) = (s u')'; integrates to 1 over [0, inf)."""
        return _reval(self._w, np.asarray(s, dtype=float))

    def area(self, order: int = 64) -> float:
        val, _ = radial_integral(self.density, tol=1e-12, order=order)
        return val


def scalar_curvature(metric: RadialMetric, grid: np.ndarray) -> np.ndarray:
    """Scalar curvature field on a grid of s-values.

    The radial formula S = -(s (log w)')' / w is derived once per metric
    in exact rational arithmetic and evaluated by Horner's rule; the round
    metric gives the constant 2.
    """
    return _reval(metric._scal, np.asarray(grid, dtype=float))


def gram(metric: RadialMetric, k: int, tol: float = 1e-12) -> np.ndarray:
    """Squared norms ||z^j||^2, j = 0..k, by adaptive radial quadrature.

    The Gram matrix of the monomial basis is diagonal by circle symmetry;
    only the diagonal is returned.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    j = np.arange(k + 1)[:, None]
    # a coarse 8-panel pass fixes one exponential scale per j
    nodes, _ = panel_rule(32, 8)
    s = nodes / (1.0 - nodes)
    scale_log = np.max(j * np.log(s)[None, :] - k * metric.u(s)[None, :], axis=1)

    def f(s):
        expo = j * np.log(s)[None, :] - k * metric.u(s)[None, :]
        return np.exp(expo - scale_log[:, None]) * metric.density(s)[None, :]

    cur, _ = radial_integral(f, tol, panels=8)
    norms = k * cur * np.exp(scale_log)
    if np.any(norms <= 0):
        raise QuadratureError("nonpositive squared norm; quadrature failed")
    return norms


def _log_moments(metric: RadialMetric, k: int, norms: np.ndarray, s: np.ndarray):
    """log T_p(s) for T_p = sum_j j^p s^j / ||z^j||^2, p = 0, 1, 2."""
    j = np.arange(k + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(s)
        base = j[:, None] * logs[None, :] - np.log(norms)[:, None]
    base[0] = -np.log(norms[0])  # s^0 = 1 even at s = 0
    lt0 = logsumexp(base, axis=0)
    # j = 0 contributes zero to T1, T2; drop it so the logsumexp weights stay positive
    lt1 = logsumexp(base[1:], axis=0, b=j[1:, None].astype(float))
    lt2 = logsumexp(base[1:], axis=0, b=(j[1:, None] ** 2).astype(float))
    return lt0, lt1, lt2


def rho(metric: RadialMetric, k: int, grid: np.ndarray, norms: Optional[np.ndarray] = None) -> np.ndarray:
    """Density of states rho_k on a grid of s-values."""
    if norms is None:
        norms = gram(metric, k)
    s = np.asarray(grid, dtype=float)
    lt0, _, _ = _log_moments(metric, k, norms, s)
    return np.exp(lt0 - k * metric.u(s))


def fs_pullback_form(
    metric: RadialMetric, k: int, grid: np.ndarray, norms: Optional[np.ndarray] = None
) -> np.ndarray:
    """Radial density of the level-k pulled-back Fubini-Study form.

    Equals w + (1/k) * (s (log rho_k)')' computed in closed form: the
    moment identity gives exactly Var_{nu_s}(j) / (k s) for the weights
    nu_s(j) ~ s^j / ||z^j||^2.  Positive for every metric and level.
    """
    if norms is None:
        norms = gram(metric, k)
    s = np.asarray(grid, dtype=float)
    return _pullback(k, s, *_log_moments(metric, k, norms, s))


def _pullback(k, s, lt0, lt1, lt2):
    a = np.exp(lt1 - lt0)
    b = np.exp(lt2 - lt0)
    density = (b - a * a) / (k * s)
    if np.any(density <= 0):
        raise QuadratureError(
            "pulled-back form lost positivity; level k too small for this grid"
        )
    return density


def theta_total_variation(
    metric: RadialMetric, k: int, tol: float = 1e-8, norms: Optional[np.ndarray] = None
) -> float:
    """Total variation of the discrepancy between the normalized density
    of states volume and the pulled-back Fubini-Study volume.

    Integrates |rho_k w / P(k) - w_FS,k| over the sphere with
    P(k) = (k+1)/k; zero exactly for the round metric.
    """
    if norms is None:
        norms = gram(metric, k)
    p_k = (k + 1.0) / k

    def f(s):  # one pass over the moments serves both rho and the form
        lt = _log_moments(metric, k, norms, s)
        r = np.exp(lt[0] - k * metric.u(s))
        return np.abs(r * metric.density(s) / p_k - _pullback(k, s, *lt))

    val, _ = radial_integral(f, tol=tol)
    return val


@dataclass
class FitResult:
    a1: np.ndarray
    remainders: np.ndarray  # shape (len(klist), len(grid))
    klist: tuple
    residual: float
    condition: float


def expansion_fit(
    metric: RadialMetric,
    klist: Sequence[int],
    grid: np.ndarray,
    norms: Optional[Mapping[int, np.ndarray]] = None,
) -> FitResult:
    """Pointwise extrapolation of the first density-of-states correction.

    Fits k (rho_k - 1) = a1 + c / k over the supplied levels and returns
    the a1 field together with the second-order remainder fields
    k^2 (rho_k - 1 - a1/k).  ``norms`` maps levels to Gram norms already
    computed; the others are computed here.
    """
    klist = tuple(int(k) for k in klist)
    if len(klist) < 3:
        raise ValueError("expansion fit needs at least three levels")
    grid = np.asarray(grid, dtype=float)
    ys = []
    for k in klist:
        r = rho(metric, k, grid, (norms or {}).get(k))
        ys.append(k * (r - 1.0))
    y = np.stack(ys)  # (nk, ngrid)
    design = np.stack([np.ones(len(klist)), 1.0 / np.asarray(klist, dtype=float)], axis=1)
    cond = float(np.linalg.cond(design))
    if cond > 1e8:
        raise ValueError(f"ill-conditioned expansion fit (cond {cond:g})")
    sol, res, _, _ = np.linalg.lstsq(design, y, rcond=None)
    a1 = sol[0]
    # k^2 (rho_k - 1 - a1/k) = k (y_k - a1)
    rem = np.stack([klist[i] * (ys[i] - a1) for i in range(len(klist))])
    residual = float(np.sqrt(np.mean((design @ sol - y) ** 2)))
    return FitResult(a1=a1, remainders=rem, klist=klist, residual=residual, condition=cond)


def moment_from_bergman(metric: RadialMetric, k: int, a: Sequence[float], tol: float = 1e-10) -> float:
    """Moment pairing <M_k, A> for a diagonal weight vector A on the
    level-k monomial basis, via the density-of-states representation.

    Integrates H_A * w_FS,k over the sphere, where H_A is the rho-weighted
    average of the eigenvalues at each point.  Requires len(a) == k + 1.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[0] != k + 1:
        raise ValueError(f"weight vector must have length k+1 = {k + 1}")
    norms = gram(metric, k)
    j = np.arange(k + 1)

    def f(s):
        base = j[:, None] * np.log(s)[None, :] - np.log(norms)[:, None]
        num, sign = logsumexp(base, axis=0, b=a[:, None], return_sign=True)
        h = sign * np.exp(num - logsumexp(base, axis=0))
        return h * fs_pullback_form(metric, k, s, norms)

    val, _ = radial_integral(f, tol=tol)
    return val


def image_cycle(metric: RadialMetric, k: int):
    """The level-k embedding of the sphere as a parametrized cycle in P^k,
    using the orthonormal monomial frame z^j / ||z^j||."""
    from kstab.cycles import Component, ProjectiveCycle

    norms = gram(metric, k)
    coeffs = np.diag(1.0 / np.sqrt(norms)).astype(complex)
    return ProjectiveCycle(k, [Component(coeffs)])


def default_grid(npts: int = 100, lo: float = 0.02, hi: float = 0.98) -> np.ndarray:
    """Interior grid of s-values, uniform in x = s/(1+s)."""
    x = np.linspace(lo, hi, npts)
    return x / (1.0 - x)


def metric_from_json(obj) -> RadialMetric:
    """Parse {"epsilon": e, "bump": {"type": "rational", "num": [...],
    "den": [...]}}; "default" uses s/(1+s)^2."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("metric input must be a JSON object")
    eps = float(obj.get("epsilon", 0.0))
    bump = obj.get("bump")
    if bump is not None and not isinstance(bump, dict):
        raise ValueError("\"bump\" must be a JSON object")
    if bump is None or bump.get("type") == "default":
        return RadialMetric(epsilon=eps)
    if bump.get("type") != "rational":
        raise ValueError(f"unsupported bump type {bump.get('type')!r}")
    num = bump.get("num", bump.get("coeffs"))
    den = bump.get("den", [1, 2, 1])  # default denominator (1+s)^2
    if num is None:
        raise ValueError("rational bump needs numerator coefficients")
    return RadialMetric(epsilon=eps, bump=(list(num), list(den)))
