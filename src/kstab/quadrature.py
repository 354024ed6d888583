"""Quadrature rules for integrals over the Riemann sphere.

Two rule families are provided: a tensor rule on the unit disc (Gauss
Legendre radially, equispaced points in angle) used for integrals over
parametrized rational curves, and composite Gauss-Legendre panels on [0, 1]
used for radial integrals over [0, inf).  Error estimates come from order
or panel doubling.  The disc rules and the radial node sets are built once
per order and panel count and shared by every caller, so they are read-only.
Single integrals accumulate with compensated summation so results are
independent of evaluation order to roundoff.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureError",
    "disc_rule",
    "disc_radii",
    "panel_rule",
    "radial_integral",
    "csum",
]


class QuadratureError(RuntimeError):
    """Raised when a quadrature does not reach the requested tolerance."""


def csum(values) -> float:
    """Compensated sum of real values (order independent to roundoff)."""
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


@functools.lru_cache(maxsize=None)
def _legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The cached arrays are shared by every caller, so they are read-only."""
    x, w = leggauss(order)
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
    integrands.  The arrays are built once per order, and read-only.
    """
    return _disc_nodes(order)


@functools.lru_cache(maxsize=None)
def _disc_nodes(order: int):
    """``disc_rule(order)``, built once per order."""
    rho, wrho, m = disc_radii(order)
    theta = 2.0 * np.pi * np.arange(m) / m
    nodes = (np.sqrt(rho)[:, None] * np.exp(1j * theta)[None, :]).ravel()
    return _read_only(nodes, np.repeat(wrho / m, m))


def disc_radii(order: int):
    """Radii rho = r^2, their weights wrho and the angle count m of
    ``disc_rule(order)``: nodes sqrt(rho_i) exp(2 pi i j / m), weights wrho_i / m."""
    if order < 1:
        raise ValueError("order must be >= 1")
    x, wx = _legendre(order)
    return 0.5 * (x + 1.0), 0.5 * wx, 2 * order + 1


def panel_rule(order: int, panels: int, edges=(0.0, 1.0)):
    """Composite Gauss-Legendre nodes/weights, ``panels`` equal panels on each
    interval between ``edges`` (by default [0, 1]), read-only."""
    x, w = _legendre(order)
    edges = np.asarray(edges, dtype=float)
    h = (np.diff(edges) / panels)[:, None, None]
    left = edges[:-1, None, None] + np.arange(panels)[:, None] * h
    return _read_only((left + 0.5 * h * (x + 1.0)).ravel(), np.repeat(0.5 * h * w, panels, axis=1).ravel())


def _on_half_line(x, w):
    """s = x/(1-x) at the nodes x in [0, 1), and the weights w times the Jacobian 1/(1-x)^2."""
    return x / (1.0 - x), w / (1.0 - x) ** 2


@functools.lru_cache(maxsize=None)
def _radial_nodes(panels: int):
    """``_on_half_line(*panel_rule(32, panels))``, built once per panel count, read-only."""
    return _read_only(*_on_half_line(*panel_rule(32, panels)))


def radial_integral(f, tol: float, panels: int = 2, breaks=None):
    """Integral over s in [0, inf) via x = s/(1+s) on order-32 Gauss-Legendre
    panels, doubling the panels from ``panels`` up to 512 until the change is
    within ``tol``.

    The Jacobian 1/(1-x)^2 is folded into the weights, so ``f``'s values are
    reduced against one vector and never copied.  ``f`` maps the shared,
    read-only array of s-values to one value per node (summed with ``csum``,
    change relative to max(1, |value|)), to a stack of rows (one matrix-vector
    product, change relative to each row's value) or to an iterator over its
    blocks of rows, each reduced before the next.  Returns (value, last change).

    ``breaks`` are points x in (0, 1) where ``f`` has a kink or a peak, or a
    callable that returns them from the first level's shared s-values.  Then
    the panels double per segment between breaks, from one to 512, on fresh
    arrays, with the same stop rule on the total.
    """
    if callable(breaks):
        breaks = breaks(_radial_nodes(panels)[0])
    if breaks is None:
        levels = (_radial_nodes(n) for n in (panels << i for i in range(10)) if n <= 512)
    else:
        edges = np.concatenate([[0.0], np.sort(breaks), [1.0]])
        levels = (_on_half_line(*panel_rule(32, 1 << i, edges)) for i in range(10))
    prev, err = None, float("inf")
    for s, w in levels:
        vals = f(s)
        if isinstance(vals, Iterator):
            cur = np.concatenate([block @ w for block in vals])
        else:
            vals = np.asarray(vals, dtype=float)
            cur = csum(w * vals) if vals.ndim == 1 else vals @ w
        del vals  # not held while f builds the next, twice larger level
        scale = np.abs(cur) if np.ndim(cur) else max(1.0, abs(cur))
        if prev is not None:
            err = float(np.max(np.abs(cur - prev) / scale))
            if err <= tol:
                return cur, err
        prev = cur
    raise QuadratureError(
        f"radial quadrature stalled at 512 panels (relative change {err:g}, tol {tol:g})"
    )
