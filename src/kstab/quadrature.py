"""Quadrature rules for integrals over the Riemann sphere.

Two rule families are provided: a tensor rule on the unit disc (Gauss
Legendre radially, equispaced points in angle) used for integrals over
parametrized rational curves, and composite Gauss-Legendre panels on [0, 1]
used for radial integrals over [0, inf).  Error estimates come from order
or panel doubling.
Single integrals accumulate with compensated summation so results are
independent of evaluation order to roundoff.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import roots_legendre

__all__ = [
    "QuadratureError",
    "disc_rule",
    "panel_rule",
    "radial_integral",
    "csum",
]


class QuadratureError(RuntimeError):
    """Raised when a quadrature does not reach the requested tolerance."""


def csum(values) -> float:
    """Compensated sum of real values (order independent to roundoff)."""
    return math.fsum(np.asarray(values, dtype=float).ravel())


@functools.lru_cache(maxsize=None)
def _legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The cached arrays are shared by every caller, so they are read-only."""
    x, w = roots_legendre(order)
    return _read_only(x, w)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def disc_rule(order: int):
    """Nodes and weights for (1/pi) * integral over the unit disc.

    Returns complex nodes ``s`` and positive weights ``w`` such that
    (1/pi) * int_{|s|<=1} f dA ~= sum w_i f(s_i).  Radially the rule is
    Gauss-Legendre in rho = r^2 on [0, 1]; in angle it is the equispaced
    (trapezoidal) rule, which is spectrally accurate for periodic smooth
    integrands.  The arrays are read-only.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    x, wx = _legendre(order)
    rho = 0.5 * (x + 1.0)
    wrho = 0.5 * wx
    m = 2 * order + 1
    theta = 2.0 * np.pi * np.arange(m) / m
    r = np.sqrt(rho)
    nodes = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = np.repeat(wrho / m, m)
    return _read_only(nodes, weights)


def panel_rule(order: int, panels: int):
    """Composite Gauss-Legendre nodes/weights on [0, 1], read-only."""
    x, w = _legendre(order)
    h = 1.0 / panels
    left = np.arange(panels)[:, None] * h
    return _read_only((left + 0.5 * h * (x + 1.0)).ravel(), np.tile(0.5 * h * w, panels))


def radial_integral(f, tol: float, panels: int = 2, order: int = 32):
    """Integral over s in [0, inf) via x = s/(1+s), doubling the panels
    from ``panels`` up to 512 until the change is within ``tol``.

    ``f`` maps an array of s-values to one value per node (summed with
    ``csum``, change relative to max(1, |value|)) or to a stack of rows
    (one matrix product, change relative to each row's value).  Returns
    (value, last change)."""
    prev, err = None, float("inf")
    while panels <= 512:
        nodes, weights = panel_rule(order, panels)
        jac = 1.0 / (1.0 - nodes) ** 2
        vals = np.asarray(f(nodes / (1.0 - nodes)), dtype=float) * jac
        if vals.ndim == 1:
            cur = csum(weights * vals)
            scale = max(1.0, abs(cur))
        else:
            cur = vals @ weights
            scale = np.abs(cur)
        if prev is not None:
            err = float(np.max(np.abs(cur - prev) / scale))
            if err <= tol:
                return cur, err
        prev = cur
        panels *= 2
    raise QuadratureError(
        f"radial quadrature stalled at 512 panels (relative change {err:g}, tol {tol:g})"
    )
