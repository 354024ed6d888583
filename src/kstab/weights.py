"""Stability weight polynomials of equivariant degenerations.

A weight system assigns an integer weight to each degree-one monomial
section; the induced level-k weights are the monomial weight sums (for a
hypersurface, monomials modulo multiples of the equivariant initial form).
The weight-sum polynomial tau, its leading coefficient I, the Chow numbers
Ch_k, and the Futaki invariant are all exact rationals.

Sign convention (calibrated, see README): tau_k is MINUS the sum of induced
section weights, and "normalized" means the smallest generator weight is
zero.  With these choices the leading coefficient I is strictly negative
for every nontrivial normalized system, any diagonal system on full
projective space has Futaki invariant zero, and the k = 1 Chow number
matches the moment pairing of the central fiber computed by quadrature
(with the weight vector negated between the section and cycle sides).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from kstab import poly

__all__ = [
    "CALIBRATED_SIGN",
    "Geometry",
    "WeightSystem",
    "TauPolynomial",
    "induced_weights",
    "gap",
    "tau_poly",
    "I_coefficient",
    "chow_k",
    "futaki",
    "fit_exact_polynomial",
    "weight_system_from_json",
    "weight_report",
    "frac_str",
]

CALIBRATED_SIGN = -1


@dataclass(frozen=True)
class Geometry:
    kind: str  # "projective" | "hypersurface"
    degree: Optional[int] = None
    initial_weight: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("projective", "hypersurface"):
            raise ValueError(f"unsupported geometry {self.kind!r}")
        if self.kind == "hypersurface":
            if self.degree is None or self.degree < 1:
                raise ValueError("hypersurface geometry needs a degree >= 1")
            if self.initial_weight is None:
                raise ValueError("hypersurface geometry needs an initial weight")


@dataclass(frozen=True)
class WeightSystem:
    """Integer weights on the degree-one monomial basis.

    For ``projective`` geometry the variety is all of P^n and there are
    n + 1 generators.  For ``hypersurface`` geometry the variety is a
    degree-d hypersurface in P^(n+1) (n + 2 generators) whose ideal is
    generated, after degenerating, by an initial form of weight
    ``initial_weight``.
    """

    dim: int
    generators: tuple
    geometry: Geometry

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(int(w) for w in self.generators))
        expected = self.dim + 1 if self.geometry.kind == "projective" else self.dim + 2
        if len(self.generators) != expected:
            raise ValueError(
                f"{self.geometry.kind} geometry in dimension {self.dim} needs "
                f"{expected} generator weights, got {len(self.generators)}"
            )
        if self.geometry.kind == "hypersurface":
            d = self.geometry.degree
            lam = self.geometry.initial_weight
            if lam not in _weight_distribution(self.generators, d):
                raise ValueError(
                    f"initial weight {lam} is not a sum of {d} generator weights"
                )

    @property
    def ambient_count(self) -> int:
        return len(self.generators)

    @property
    def is_trivial(self) -> bool:
        return len(set(self.generators)) == 1

    @property
    def is_normalized(self) -> bool:
        return min(self.generators) == 0


def _weight_distribution(weights, k):
    """dict weight -> number of degree-k monomials with that weight.

    levels[j] counts the degree-j monomials in the generators taken so far
    by weight; a generator of weight w adds to level j the monomials that
    use it, level j - 1 (already updated) shifted by w.
    """
    levels = [{0: 1}] + [{} for _ in range(k)]
    for w in weights:
        for j in range(1, k + 1):
            level = levels[j]
            for wt, cnt in levels[j - 1].items():
                level[wt + w] = level.get(wt + w, 0) + cnt
    return levels[k]


def induced_weights(w: WeightSystem, k: int):
    """Sorted list of weights on a monomial basis at level k."""
    if k < 1:
        raise ValueError("level k must be >= 1")
    dist = _weight_distribution(w.generators, k)
    if w.geometry.kind == "hypersurface":
        d = w.geometry.degree
        lam = w.geometry.initial_weight
        if k >= d:
            sub = _weight_distribution(w.generators, k - d)
            for wt, cnt in sub.items():
                key = wt + lam
                have = dist.get(key, 0)
                if have < cnt:
                    raise ValueError(
                        f"initial form weight inconsistent at level {k}: "
                        f"weight {key} occurs {have} < {cnt} times"
                    )
                if have == cnt:
                    del dist[key]
                else:
                    dist[key] = have - cnt
    out = []
    for wt in sorted(dist):
        out.extend([wt] * dist[wt])
    return out


def gap(weights) -> int:
    """Spread max - min of a nonempty list of integers."""
    ws = list(weights)
    if not ws:
        raise ValueError("gap of an empty weight list is undefined")
    return max(ws) - min(ws)


def fit_exact_polynomial(points, degree):
    """Exact polynomial coefficients (ascending) through the given points.

    ``points`` is a list of (x, y) pairs with len == degree + 1.  Newton
    divided differences over Fractions, then the Newton form expanded by
    Horner's rule: O(degree^2) operations.
    """
    if len(points) != degree + 1:
        raise ValueError("need exactly degree + 1 sample points")
    xs = [Fraction(x) for x, _ in points]
    dd = [Fraction(y) for _, y in points]
    for j in range(1, degree + 1):
        for i in range(degree, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    coeffs = []
    for x, c in zip(reversed(xs), reversed(dd)):
        coeffs = poly.add(poly.mul(coeffs, [-x, Fraction(1)]), [c])
    return coeffs + [Fraction(0)] * (degree + 1 - len(coeffs))


@dataclass(frozen=True)
class TauPolynomial:
    """Exact total-weight polynomial with its Hilbert data.

    ``coeffs`` are the ascending coefficients of the degree-(n+1)
    polynomial k -> tau_k.  ``hilbert`` are the ascending coefficients of
    the degree-n polynomial k -> N(k) + 1 = dim of the level-k section
    space; its leading coefficient is the volume V.
    """

    dim: int
    coeffs: tuple
    hilbert: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        object.__setattr__(self, "hilbert", tuple(Fraction(c) for c in self.hilbert))
        if len(self.coeffs) != self.dim + 2:
            raise ValueError("tau must have degree <= dim + 1")
        if len(self.hilbert) != self.dim + 1:
            raise ValueError("hilbert polynomial must have degree dim")
        if self.volume <= 0:
            raise ValueError("leading Hilbert coefficient must be positive")

    @property
    def volume(self) -> Fraction:
        return self.hilbert[-1]

    @property
    def alpha1(self) -> Fraction:
        if self.dim == 0:
            return Fraction(0)
        return self.hilbert[-2] / self.volume

    def tau_at(self, k) -> Fraction:
        return poly.evaluate(self.coeffs, Fraction(k))

    def sections_at(self, k) -> Fraction:
        return poly.evaluate(self.hilbert, Fraction(k))


def _level_sums(w: WeightSystem, k: int):
    """Number and total weight of the level-k sections, from closed forms.

    The C(m-1+j, m-1) degree-j monomials in m generators use each generator
    with mean exponent j/m, so their weights total C(m-1+j, m) sum(w).  A
    hypersurface drops the multiples of a degree-d monomial of weight lambda
    (one exists, see WeightSystem): level k - d, shifted by lambda.
    """
    m, s = w.ambient_count, sum(w.generators)
    count, total = math.comb(m - 1 + k, m - 1), math.comb(m - 1 + k, m) * s
    if w.geometry.kind == "hypersurface" and k >= w.geometry.degree:
        j = k - w.geometry.degree
        sub = math.comb(m - 1 + j, m - 1)
        count -= sub
        total -= math.comb(m - 1 + j, m) * s + w.geometry.initial_weight * sub
    return count, total


def tau_poly(w: WeightSystem, sign_convention: int = CALIBRATED_SIGN) -> TauPolynomial:
    """Fit the exact weight-sum polynomial and Hilbert data of a system.

    The polynomial is fitted on n + 2 consecutive levels starting at k0 = 1
    and verified at three further levels; disagreement raises ValueError
    ("not eventually polynomial"), signalling unsupported weight data.
    For hypersurfaces of degree d the window starts at k0 = max(1, d - n - 1),
    the first level at which the section counts agree with their polynomial
    extension.
    """
    if sign_convention not in (1, -1):
        raise ValueError("sign convention must be +1 or -1")
    n = w.dim
    k0 = max(1, w.geometry.degree - n - 1) if w.geometry.kind == "hypersurface" else 1
    levels = list(range(k0, k0 + n + 5))
    data = {k: _level_sums(w, k) for k in levels}
    tau_pts = [(k, sign_convention * data[k][1]) for k in levels]
    dim_pts = [(k, data[k][0]) for k in levels]

    coeffs = fit_exact_polynomial(tau_pts[: n + 2], n + 1)
    hilbert = fit_exact_polynomial(dim_pts[: n + 1], n)
    checks = (("weight sums", coeffs, tau_pts[n + 2:]), ("dimension counts", hilbert, dim_pts[n + 1:]))
    for what, fit, pts in checks:
        for k, y in pts:
            if poly.evaluate(fit, k) != y:
                raise ValueError(
                    f"not eventually polynomial: {what} disagree at level {k}; "
                    "unsupported weight data"
                )
    return TauPolynomial(dim=n, coeffs=tuple(coeffs), hilbert=tuple(hilbert))


def I_coefficient(tau: TauPolynomial) -> Fraction:
    """Leading (k^(n+1)) coefficient of tau."""
    return tau.coeffs[-1]


def chow_k(tau: TauPolynomial, k: int) -> Fraction:
    """Chow number tau_k / (N(k)+1) - k I / V at level k.

    Raises ValueError at a level where the Hilbert polynomial N(k)+1 is 0
    (for example k = 1 on a plane quintic, N(k)+1 = 5k - 5)."""
    if k < 1:
        raise ValueError("level k must be >= 1")
    sections = tau.sections_at(k)
    if sections == 0:
        raise ValueError(f"the Hilbert polynomial vanishes at level {k}")
    return tau.tau_at(k) / sections - Fraction(k) * I_coefficient(tau) / tau.volume


def futaki(tau: TauPolynomial) -> Fraction:
    """Limit of the Chow numbers: (J - I * alpha_1) / V exactly.

    J is the k^n coefficient of tau and alpha_1 the subleading Hilbert
    ratio.
    """
    I = tau.coeffs[-1]
    J = tau.coeffs[-2]
    return (J - I * tau.alpha1) / tau.volume


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def weight_system_from_json(obj) -> WeightSystem:
    geo = obj["geometry"]
    geometry = Geometry(
        kind=geo["type"],
        degree=geo.get("degree"),
        initial_weight=geo.get("initial_weight"),
    )
    return WeightSystem(
        dim=int(obj["dim"]), generators=tuple(obj["generators"]), geometry=geometry
    )


def frac_str(x: Fraction) -> str:
    """An exact rational as its "num/den" report string."""
    return f"{x.numerator}/{x.denominator}"


def weight_report(
    w: WeightSystem, kmax: int = 10, sign_convention: int = CALIBRATED_SIGN, kmin: int = 1
) -> dict:
    """Full exact report: tau coefficients, I, V, alpha_1, Ch_k table for
    levels kmin..kmax, Futaki.

    ``Ch_k`` is null at a level where the Hilbert polynomial vanishes, and
    then a ``note`` names those levels."""
    tau = tau_poly(w, sign_convention)
    chow = {
        str(k): frac_str(chow_k(tau, k)) if tau.sections_at(k) else None
        for k in range(kmin, kmax + 1)
    }
    report = {
        "dim": w.dim,
        "generators": list(w.generators),
        "geometry": {
            "type": w.geometry.kind,
            "degree": w.geometry.degree,
            "initial_weight": w.geometry.initial_weight,
        },
        "sign_convention": sign_convention,
        "tau_coefficients": [frac_str(c) for c in tau.coeffs],
        "hilbert_coefficients": [frac_str(c) for c in tau.hilbert],
        "I": frac_str(I_coefficient(tau)),
        "V": frac_str(tau.volume),
        "alpha1": frac_str(tau.alpha1),
        "chow": chow,
        "futaki": frac_str(futaki(tau)),
    }
    null = [k for k, v in chow.items() if v is None]
    if null:
        report["note"] = (
            f"Ch_k is null at k = {', '.join(null)}: the Hilbert polynomial N(k) + 1 vanishes there"
        )
    return report
