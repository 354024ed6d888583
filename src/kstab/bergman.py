"""Density of states for circle-invariant metrics on the Riemann sphere.

The metric is given by a radial potential u(s), s = |z|^2, with
u = log(1 + s) + eps * psi(s) for a decaying rational bump psi; the
associated area density is w = (s u')' (total mass one, the polarization
class is fixed).  w and the scalar curvature are rational functions of s,
derived in exact rational arithmetic (``kstab.poly``) and evaluated by
Horner's rule: w once per metric, S only when ``scalar_curvature`` reads it.
Level-k sections are the monomials z^j, orthogonal by circle invariance,
with squared norms computed by radial quadrature once per metric and level
and kept, read-only, on the metric for every later reader.  The density of
states

    rho_k(s) = sum_j |z^j|^2_h / ||z^j||^2

is normalized so that its integral against the k-scaled volume form equals
the section-space dimension k + 1, and rho_k -> 1 with first correction
a1 / k where a1 is half the scalar curvature (S is normalized so the round
metric has S = 2).

All radial differentiation of rho_k uses the closed-form moment identities
of the weight distribution nu_s(j) proportional to s^j / ||z^j||^2 — the
pulled-back Fubini-Study density at level k is exactly Var_{nu_s}(j)/(k s) —
never finite differences.  Each node set costs one exponential over the
(k+1) x nodes array of s^j / ||z^j||^2; the moment sums are read off one
small matrix product with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from kstab import poly
from kstab.quadrature import QuadratureError, radial_integral

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

    def __init__(self, epsilon: float = 0.0, bump=None):
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
        self._norms = {}  # level k -> read-only Gram norms, filled by gram
        # certificate: minimum of the density relative to the round one,
        # which stays bounded away from zero for genuine metrics
        x = np.linspace(1e-6, 1 - 1e-6, 400)
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


def scalar_curvature(metric: RadialMetric, grid: np.ndarray) -> np.ndarray:
    """Scalar curvature field on a grid of s-values.

    The radial formula S = -(s (log w)')' / w, with (log w)' = w'/w, is
    derived here in exact rational arithmetic and evaluated by Horner's
    rule; the round metric gives the constant 2.
    """
    w = metric._w
    s_logw = _rmul(([0, 1], [1]), _rmul(_rdiff(w), w[::-1]))
    scal = _rmul(([-1], [1]), _rmul(_rdiff(s_logw), w[::-1]))
    return _reval(scal, np.asarray(grid, dtype=float))


def gram(metric: RadialMetric, k: int) -> np.ndarray:
    """Squared norms ||z^j||^2, j = 0..k, by adaptive radial quadrature to a
    relative change of 1e-12 in every norm.

    The Gram matrix of the monomial basis is diagonal by circle symmetry;
    only the diagonal is returned.  The first quadrature level (8 panels)
    fixes one exponential scale per j, so every level is evaluated once.
    The norms are computed once per metric and level and returned
    read-only from then on; a failed quadrature is not kept.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    k = int(k)
    if k in metric._norms:
        return metric._norms[k]
    jf = np.arange(k + 1, dtype=float)
    scale_log = None

    def f(s):
        nonlocal scale_log
        e = np.multiply.outer(jf, np.log(s))
        e -= k * metric.u(s)
        if scale_log is None:
            scale_log = e.max(axis=1)
        e -= scale_log[:, None]
        np.exp(e, out=e)
        e *= metric.density(s)
        return e

    cur, _ = radial_integral(f, 1e-12, panels=8)
    norms = k * cur * np.exp(scale_log)
    if np.any(norms <= 0):
        raise QuadratureError("nonpositive squared norm; quadrature failed")
    norms.flags.writeable = False
    metric._norms[k] = norms
    return norms


def _moment_sums(norms: np.ndarray, s: np.ndarray, *weights: np.ndarray):
    """T_p = sum_j j^p s^j / ||z^j||^2 for p = 0, 1, 2, then sum_j a_j s^j /
    ||z^j||^2 for each weight row a, at each s, from one exponential.

    Returns (T, shift) with the sums equal to T exp(shift): E = exp(j log s
    - log ||z^j||^2 - shift) with the largest exponent per column as shift,
    then T = rows @ E.  At s = 0 only j = 0 contributes.
    """
    jf = np.arange(len(norms), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.multiply.outer(jf, np.log(s))
    e[0] = 0.0  # s^0 = 1 even at s = 0
    e -= np.log(norms)[:, None]
    shift = e.max(axis=0)
    e -= shift
    np.exp(e, out=e)
    return np.vstack([jf ** np.arange(3)[:, None], *weights]) @ e, shift


def _pullback(k, s, t):
    """Var_{nu_s}(j) / (k s) from the moment sums T_0, T_1, T_2."""
    a = t[1] / t[0]
    density = (t[2] / t[0] - a * a) / (k * s)
    if np.any(density <= 0):
        raise QuadratureError(
            "pulled-back form lost positivity; level k too small for this grid"
        )
    return density


def rho(metric: RadialMetric, k: int, grid: np.ndarray, norms: Optional[np.ndarray] = None) -> np.ndarray:
    """Density of states rho_k on a grid of s-values."""
    if norms is None:
        norms = gram(metric, k)
    s = np.asarray(grid, dtype=float)
    t, shift = _moment_sums(norms, s)
    return np.exp(np.log(t[0]) + shift - k * metric.u(s))


def fs_pullback_form(metric: RadialMetric, k: int, grid: np.ndarray) -> np.ndarray:
    """Radial density of the level-k pulled-back Fubini-Study form.

    Equals w + (1/k) * (s (log rho_k)')' computed in closed form: the
    moment identity gives exactly Var_{nu_s}(j) / (k s) for the weights
    nu_s(j) ~ s^j / ||z^j||^2.  Positive for every metric and level.
    """
    s = np.asarray(grid, dtype=float)
    return _pullback(k, s, _moment_sums(gram(metric, k), s)[0])


def theta_total_variation(metric: RadialMetric, k: int) -> float:
    """Total variation of the discrepancy between the normalized density
    of states volume and the pulled-back Fubini-Study volume.

    Integrates |rho_k w / P(k) - w_FS,k| over the sphere, to a change of
    1e-8, with P(k) = (k+1)/k; zero exactly for the round metric.
    """
    norms = gram(metric, k)
    p_k = (k + 1.0) / k

    def f(s):  # one exponential serves both rho and the form
        t, shift = _moment_sums(norms, s)
        r = np.exp(np.log(t[0]) + shift - k * metric.u(s))
        return np.abs(r * metric.density(s) / p_k - _pullback(k, s, t))

    val, _ = radial_integral(f, tol=1e-8)
    return val


@dataclass
class FitResult:
    a1: np.ndarray
    remainders: np.ndarray  # shape (len(klist), len(grid))


def expansion_fit(metric: RadialMetric, klist: Sequence[int], grid: np.ndarray) -> FitResult:
    """Pointwise extrapolation of the first density-of-states correction.

    Fits k (rho_k - 1) = a1 + c / k over the supplied levels and returns
    the a1 field together with the second-order remainder fields
    k^2 (rho_k - 1 - a1/k).
    """
    klist = tuple(int(k) for k in klist)
    if len(klist) < 3:
        raise ValueError("expansion fit needs at least three levels")
    grid = np.asarray(grid, dtype=float)
    ys = [k * (rho(metric, k, grid) - 1.0) for k in klist]
    y = np.stack(ys)  # (nk, ngrid)
    design = np.stack([np.ones(len(klist)), 1.0 / np.asarray(klist, dtype=float)], axis=1)
    cond = float(np.linalg.cond(design))
    if cond > 1e8:
        raise ValueError(f"ill-conditioned expansion fit (cond {cond:g})")
    a1 = np.linalg.lstsq(design, y, rcond=None)[0][0]
    # k^2 (rho_k - 1 - a1/k) = k (y_k - a1)
    rem = np.stack([klist[i] * (ys[i] - a1) for i in range(len(klist))])
    return FitResult(a1=a1, remainders=rem)


def moment_from_bergman(metric: RadialMetric, k: int, a: Sequence[float]) -> float:
    """Moment pairing <M_k, A> for a diagonal weight vector A on the
    level-k monomial basis, via the density-of-states representation.

    Integrates H_A * w_FS,k over the sphere, to a change of 1e-10, where
    H_A is the rho-weighted average of the eigenvalues at each point.
    Requires len(a) == k + 1.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[0] != k + 1:
        raise ValueError(f"weight vector must have length k+1 = {k + 1}")
    norms = gram(metric, k)

    def f(s):  # H_A = (a @ E) / (1 @ E), signed
        t, _ = _moment_sums(norms, s, a)
        return t[3] / t[0] * _pullback(k, s, t)

    val, _ = radial_integral(f, tol=1e-10)
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
