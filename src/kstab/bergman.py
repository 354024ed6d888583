"""Density of states for circle-invariant metrics on the Riemann sphere.

The metric is given by a radial potential u(s), s = |z|^2, with
u = log(1 + s) + eps * psi(s) for a decaying rational bump psi; the
associated area density is w = (s u')' (total mass one, the polarization
class is fixed).  psi, w and the scalar curvature S are rational functions
of s, derived exactly on integer coefficient lists (``kstab.poly``), reduced
by one gcd each and evaluated by Horner's rule; S only when
``scalar_curvature`` reads it.  Level-k sections are the monomials z^j,
orthogonal by circle invariance, with squared norms computed by radial
quadrature once per metric and level, in blocks of rows j of at most 1 MB
whatever k.  The metric keeps them, log s, u and w on each radial node set
and rho_k per level on its last grid, read-only.  The discrepancy's rule
breaks at its kinks, so its per-call segment nodes are kept nowhere.  The
density of states

    rho_k(s) = sum_j |z^j|^2_h / ||z^j||^2

is normalized so that its integral against the k-scaled volume form equals
the section-space dimension k + 1, and rho_k -> 1 with first correction
a1 / k where a1 is half the scalar curvature (S is normalized so the round
metric has S = 2).

All radial differentiation of rho_k uses the closed-form moment identities
of the weight distribution nu_s(j) proportional to s^j / ||z^j||^2 — the
pulled-back Fubini-Study density at level k is exactly Var_{nu_s}(j)/(k s) —
never finite differences.  Each node set costs one rank-3 matrix product
for the exponents of the (k+1) x nodes array of s^j / ||z^j||^2, one
exponential of it and one small matrix product for the moment sums; what
reads only the norms is set up once per integral.
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

_BLOCK = 2**16  # entries per block of rows of gram's integrand (512 kB)

# Rational functions are pairs (num, den) of exact ascending coefficient
# lists in lowest terms with a monic denominator, derived unreduced on
# integer lists and reduced once, by ``_ratio``.


def _ratio(num, den):
    """Integer lists num/den in lowest terms, as Fractions over a monic den."""
    g = poly.clear_denominators(poly.gcd(num, den))[0]
    num, den = poly.divide(num, g), poly.divide(den, g)
    return [Fraction(c, den[-1]) for c in num], [Fraction(c, den[-1]) for c in den]


def _rdiff(p, q):
    """(p/q)' = (p'q - pq') / q^2 of integer lists, unreduced."""
    return poly.add(poly.mul(poly.deriv(p), q), poly.mul(p, poly.deriv(q)), -1), poly.mul(q, q)


def _floats(f):
    return [float(c) for c in f[0]], [float(c) for c in f[1]]


def _reval(f, s):
    """Float evaluation of a rational function, as ``_floats``, at s."""
    return poly.evaluate(f[0], s) / poly.evaluate(f[1], s)


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
        num, den = poly.clear_denominators([Fraction(c) for c in num], [Fraction(c) for c in den])
        if not any(den):
            raise ValueError("bump denominator is the zero polynomial")
        self._psi = _ratio(num, den)
        # the exact rational eps keeps w and S exact
        eps = Fraction(self.epsilon).limit_denominator(10**9)
        self._eps = float(eps)
        # s u' = s/(1+s) + eps * s psi' = a/b with b = (1+s) q^2 for psi = p/q,
        # then w = (s u')'
        (p, q), e, d = poly.clear_denominators(*self._psi), eps.numerator, eps.denominator
        dp, qq = _rdiff(p, q)
        a = poly.add(poly.mul([0, d], qq), poly.mul([0, e, e], dp))
        self._w = _ratio(*_rdiff(a, poly.mul([d, d], qq)))
        self._psi_f, self._w_f = _floats(self._psi), _floats(self._w)
        self._norms = {}  # level k -> read-only Gram norms, filled by gram
        self._nodes = {}  # node count -> (s, log s, u, w), filled by _on_nodes
        self._rho = {}  # level k -> (grid, rho_k on it), filled by rho
        # certificate: minimum of the density relative to the round one,
        # which stays bounded away from zero for genuine metrics
        x = np.linspace(1e-6, 1 - 1e-6, 400)
        s = x / (1 - x)
        try:
            with np.errstate(all="ignore", over="raise"):  # no warnings; NaN fails below
                self.positivity_certificate = float(np.min(self.density(s) * (1.0 + s) ** 2))
            why = f"density minimum {self.positivity_certificate:g} <= 0 relative to round"
        except FloatingPointError:
            self.positivity_certificate, why = np.nan, "its density overflowed in floating point"
        if not self.positivity_certificate > 0:  # NaN too: a pole in (0, inf)
            raise ValueError(f"potential is not a metric: {why}")

    # evaluated callables ------------------------------------------------
    def u(self, s):
        s = np.asarray(s, dtype=float)
        return np.log1p(s) + self._eps * _reval(self._psi_f, s)

    def density(self, s):
        """Area density w(s) = (s u')'; integrates to 1 over [0, inf)."""
        return _reval(self._w_f, np.asarray(s, dtype=float))

    def _on_nodes(self, s):
        """log s, u and w, read-only, on a shared radial node set, evaluated
        at the first call on it (the set is held and checked by identity)."""
        kept = self._nodes.get(len(s))
        if kept is None or kept[0] is not s:
            kept = self._nodes[len(s)] = (s, np.log(s), self.u(s), self.density(s))
            for a in kept[1:]:
                a.flags.writeable = False
        return kept[1:]


def scalar_curvature(metric: RadialMetric, grid: np.ndarray) -> np.ndarray:
    """Scalar curvature field on a grid of s-values.

    The radial formula S = -(s (log w)')' / w, with (log w)' = w'/w, is
    derived here in exact rational arithmetic and evaluated by Horner's
    rule; the round metric gives the constant 2.
    """
    n, d = poly.clear_denominators(*metric._w)
    # (s (log w)')' = de/ff, from s (log w)' = s (n'd - nd') / (n d)
    de, ff = _rdiff(poly.mul([0, 1], _rdiff(n, d)[0]), poly.mul(n, d))
    scal = _ratio(poly.add([], poly.mul(de, d), -1), poly.mul(ff, n))
    return _reval(_floats(scal), np.asarray(grid, dtype=float))


def gram(metric: RadialMetric, k: int) -> np.ndarray:
    """Squared norms ||z^j||^2, j = 0..k, by adaptive radial quadrature to a
    relative change of 1e-12 in every norm.

    The Gram matrix of the monomial basis is diagonal by circle symmetry;
    only the diagonal is returned.  The first quadrature level (8 panels)
    fixes one exponential scale per j, so every level is evaluated once.
    The norms are computed once per metric and level and returned
    read-only from then on; a failed quadrature is not kept.  Exponents are
    raised to -700, as numpy's exp is over ten times slower below -708; next
    to each row's largest term, about one, e^-700 moves no bit of its sum.
    Rows j go through in blocks of ``_BLOCK`` entries (8 rows at 512 panels),
    each a multiple of 8 rows and the last with the remainder, so memory is
    flat in k and, on one BLAS thread, each sum has the bits of one product.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    k = int(k)
    if k in metric._norms:
        return metric._norms[k]
    jf, scale_log, scaled = np.arange(k + 1, dtype=float), np.zeros(k + 1), False

    def rows(s):
        nonlocal scaled
        log_s, u, w = metric._on_nodes(s)
        first, scaled, ku = not scaled, True, k * u
        step = max(8, _BLOCK // len(s) // 8 * 8)
        lo = range(0, max(k + 2 - step, 1), step)  # the last block takes the remainder
        for j in map(slice, lo, [*lo[1:], k + 1]):
            e = np.multiply.outer(jf[j], log_s)
            e -= ku
            if first:
                scale_log[j] = e.max(axis=1)
            e -= scale_log[j, None]
            np.exp(np.maximum(e, -700.0, out=e), out=e)
            e *= w
            yield e

    cur, _ = radial_integral(rows, 1e-12, panels=8)
    norms = k * cur * np.exp(scale_log)
    if np.any(cur <= 0):
        raise QuadratureError("nonpositive squared norm; quadrature failed")
    if np.any(norms == 0):  # exp(scale_log) underflowed
        low = np.min(np.log(k * cur) + scale_log)
        raise QuadratureError(f"squared norm underflows: lowest log norm {low:.1f}, below the least double's -744.4")
    norms.flags.writeable = False
    metric._norms[k] = norms
    return norms


def _moment_kernel(norms: np.ndarray, *weights: np.ndarray):
    """The moment sums as a function ``sums(s, log s)``, with the set-up (the
    log norms, their increments and both matrices) done once per integral.

    T_p = sum_j j^p s^j / ||z^j||^2 for p = 0, 1, 2, then sum_j a_j s^j /
    ||z^j||^2 for each weight row a, at each s, from one exponential.
    Returns (T, shift) with the sums equal to T exp(shift): the exponents
    j log s - c_j - shift, c = log ||z^j||^2, are one rank-3 product
    [j, -c_j, 1] @ [log s; 1; -shift], then T = rows @ exp of it.  The
    shift is the largest exponent per column; for log-convex norms (Gram
    norms are, by Cauchy-Schwarz) it sits where the increments of c pass
    log s.  Exponents below -700 are raised to -700, as numpy's exp is over
    ten times slower below about -708; each sum moves by at most (k+1)
    max|row| e^-700.  At s = 0 only j = 0 contributes.
    """
    jf, c = np.arange(len(norms), dtype=float), np.log(norms)
    d = np.diff(c)
    convex = np.all(d[:-1] <= d[1:])
    expo = np.column_stack([jf, -c, np.ones_like(c)])
    rows = np.vstack([jf ** np.arange(3)[:, None], *weights])

    def sums(s, ls):
        if convex:
            top = np.searchsorted(d, ls)
            shift = top * ls - c[top]
        else:
            shift = np.max(np.multiply.outer(jf, ls) - c[:, None], axis=0)
        e = expo @ np.vstack([ls, np.ones_like(ls), -shift])
        np.exp(np.maximum(e, -700.0, out=e), out=e)
        e[1:, s == 0] = 0.0
        return rows @ e, shift

    return sums


def _moment_sums(norms: np.ndarray, s: np.ndarray, *weights: np.ndarray):
    """The sums of ``_moment_kernel(norms, *weights)`` at s, log 0 a finite floor."""
    ls = np.log(s, out=np.full(np.shape(s), -1e300), where=s != 0)
    return _moment_kernel(norms, *weights)(s, ls)


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
    """Density of states rho_k on a grid of s-values; kept read-only on the metric
    per level for the last grid (checked by identity) unless ``norms`` is given."""
    s = np.asarray(grid, dtype=float)
    if norms is None:
        if metric._rho.get(k, (None,))[0] is not s:
            metric._rho[k] = (s, rho(metric, k, s, gram(metric, k)))
            metric._rho[k][1].flags.writeable = False
        return metric._rho[k][1]
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

    Integrates |D| = |rho_k w / P(k) - w_FS,k| over the sphere, to a change of
    1e-8, with P(k) = (k+1)/k; zero exactly for the round metric.  The radial
    rule breaks at the kinks of |D|: the sign changes of D / w at the first
    level's 64 nodes next to a value above its roundoff 64 k eps (1 + s), each
    refined by inverse linear, then quadratic, then cubic interpolation, with
    one call for all of them per step.
    """
    sums = _moment_kernel(gram(metric, k))
    p_k = (k + 1.0) / k

    def ratio(s, log_s, u, w):  # D / w: one exponential serves both rho and the form
        t, shift = sums(s, log_s)
        return np.exp(np.log(t[0]) + shift - k * u) / p_k - _pullback(k, s, t) / w

    def direct(s):  # on nodes that differ per call: u and w are kept nowhere
        w = metric.density(s)
        return ratio(s, np.log(s), metric.u(s), w), w

    def kinks(s):
        x, d = s / (1.0 + s), ratio(s, *metric._on_nodes(s))
        big = np.abs(d) > 64 * k * np.finfo(float).eps * (1.0 + s)
        i = np.flatnonzero((d[:-1] * d[1:] < 0) & (big[:-1] | big[1:]))
        xs, ds = np.stack([x[i], x[i + 1]]), np.stack([d[i], d[i + 1]])
        while True:  # x as a polynomial in D / w through the points so far, at D = 0
            with np.errstate(divide="ignore", invalid="ignore"):
                q = ds / (ds - ds[:, None])  # q[j, l] = d_l / (d_l - d_j)
            q[np.diag_indices(len(ds))] = 1.0
            c = np.fmin(np.fmax(np.sum(xs * q.prod(axis=1), axis=0), xs[0]), xs[1])  # NaN to the left end
            if len(xs) == 4:
                return c
            xs, ds = np.vstack([xs, c]), np.vstack([ds, direct(c / (1.0 - c))[0]])

    return radial_integral(lambda s: np.abs(np.multiply(*direct(s))), 1e-8, breaks=kinks)[0]  # |D / w| w


@dataclass
class FitResult:
    a1: np.ndarray


def expansion_fit(metric: RadialMetric, klist: Sequence[int], grid: np.ndarray) -> FitResult:
    """Pointwise extrapolation of the first density-of-states correction.

    Fits k (rho_k - 1) = a1 + c / k over the supplied levels and returns
    the a1 field.
    """
    klist = tuple(int(k) for k in klist)
    if len(klist) < 3:
        raise ValueError("expansion fit needs at least three levels")
    y = np.stack([k * (rho(metric, k, grid) - 1.0) for k in klist])  # (nk, ngrid)
    design = np.stack([np.ones(len(klist)), 1.0 / np.asarray(klist, dtype=float)], axis=1)
    cond = float(np.linalg.cond(design))
    if cond > 1e8:
        raise ValueError(f"ill-conditioned expansion fit (cond {cond:g})")
    return FitResult(a1=np.linalg.lstsq(design, y, rcond=None)[0][0])


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
    sums = _moment_kernel(gram(metric, k), a)

    def f(s):  # H_A = (a @ E) / (1 @ E), signed
        t, _ = sums(s, metric._on_nodes(s)[0])
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
    "den": [...]}}; "default" uses s/(1+s)^2.  Coefficients may be "p/q"."""
    eps = poly.json_number(obj.get("epsilon", 0.0), "epsilon")
    bump = obj.get("bump")
    if bump is not None and not isinstance(bump, dict):
        raise ValueError("\"bump\" must be a JSON object")
    if bump is None or bump.get("type") == "default":
        return RadialMetric(epsilon=eps)
    if bump.get("type") != "rational":
        raise ValueError(f"unsupported bump type {bump.get('type')!r}")
    num, den = bump.get("num"), bump.get("den", [1, 2, 1])  # default denominator (1+s)^2
    if num is None:
        raise ValueError("rational bump needs numerator coefficients")
    num, den = (poly.json_list(p, f"bump {f}") for p, f in ((num, "num"), (den, "den")))
    return RadialMetric(eps, tuple([poly.json_number(c, "bump coefficient", exact=True) for c in p] for p in (num, den)))
