"""Stability weight polynomials of equivariant degenerations.

A weight system assigns an integer weight to each degree-one monomial
section; the induced level-k weights are the monomial weight sums (for a
hypersurface, monomials modulo multiples of the equivariant initial form).
The weight-sum polynomial tau, its leading coefficient I, the Chow numbers
Ch_k, and the Futaki invariant are all exact rationals.  tau_k and the
section count N(k) + 1 are binomial polynomials in k, integer lists over m!
(m generators) written down in closed form and evaluated by Horner's rule on
integers: no monomial is listed and no level is sampled or fitted.  Below a
hypersurface's degree nothing is dropped, so the levels there are counted by
the ambient space's lists.  tau_poly returns these lists, and every exact
value (coefficients, I, V, Ch_k, Futaki) is read from them.

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
        stray = [f for f in ("degree", "initial_weight") if getattr(self, f) is not None]
        if self.kind == "projective" and stray:
            raise ValueError(f"projective geometry takes no {stray[0]}")
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
        if self.dim < 0:
            raise ValueError(f"dim must be >= 0, got {self.dim}")
        expected = self.dim + 1 if self.geometry.kind == "projective" else self.dim + 2
        if len(self.generators) != expected:
            raise ValueError(f"{self.geometry.kind} geometry in dimension {self.dim} needs "
                             f"{expected} generator weights, got {len(self.generators)}")
        d, lam = self.geometry.degree, self.geometry.initial_weight
        if self.geometry.kind == "hypersurface" and not _is_weight_sum(self.generators, d, lam):
            raise ValueError(f"initial weight {lam} is not a sum of {d} generator weights")

    @property
    def ambient_count(self) -> int:
        return len(self.generators)

    @property
    def is_trivial(self) -> bool:
        return len(set(self.generators)) == 1

    @property
    def is_normalized(self) -> bool:
        return min(self.generators) == 0


MAX_SUMS = 2 ** 21  # most partial sums the initial-weight check may form


def _is_weight_sum(weights, d, lam):
    """Whether lam is a sum of d of the weights with repetition: less d times the
    least weight, a sum of at most d shifted weights p > 0.  A sum with the fewest
    terms has fewer than top (the largest p) other terms: two of any top prefix
    sums agree modulo top, and fewer top-steps replace the block between them.
    So a breadth-first search over the other steps, keeping each distinct partial
    sum that can still reach the target once, stops after min(d, top - 1) levels,
    and is refused when it would form more than MAX_SUMS sums."""
    low, top = min(weights), max(weights) - min(weights)
    steps, target = {w - low for w in weights} - {0, top}, lam - d * low
    if not top or not 0 <= target <= d * top:
        return target == 0
    level, seen, formed = {0}, {0}, 0
    for left in range(d - 1, d - min(d, top - 1) - 1, -1):  # terms still to come after this level
        if not level or any((target - s) % top == 0 for s in level):
            break
        formed += len(level) * len(steps)
        if formed > MAX_SUMS:
            raise ValueError(f"checking initial weight {lam} needs more than 2^21 = {MAX_SUMS} partial sums")
        level = {s + p for s in level for p in steps if 0 <= target - s - p <= left * top} - seen
        seen |= level
    return any((target - s) % top == 0 for s in level)


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
    """Sorted list of weights on a monomial basis at level k.  A hypersurface drops
    the multiples of a degree-d monomial (see WeightSystem), so no count falls below 0."""
    if k < 1:
        raise ValueError("level k must be >= 1")
    dist = _weight_distribution(w.generators, k)
    if w.geometry.kind == "hypersurface" and k >= w.geometry.degree:
        for wt, cnt in _weight_distribution(w.generators, k - w.geometry.degree).items():
            dist[wt + w.geometry.initial_weight] -= cnt
    return [wt for wt in sorted(dist) for _ in range(dist[wt])]


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
    """Exact total-weight polynomial with its Hilbert data, as tau_poly builds it:
    ascending integer lists over ``den`` = m! (m generators).  ``tau`` (padded to
    dim + 2 entries) is k -> tau_k and ``count`` k -> N(k) + 1, the dimension of
    the level-k section space; ``below`` holds the ambient space's (tau, count),
    which count the levels below ``degree`` (0 for projective space).
    """

    dim: int
    den: int
    tau: tuple
    count: tuple
    degree: int
    below: tuple

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.tau)

    @property
    def hilbert(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.count)

    @property
    def volume(self) -> Fraction:
        return Fraction(self.count[-1], self.den)

    @property
    def alpha1(self) -> Fraction:
        return Fraction(self.count[-2], self.count[-1]) if self.dim else Fraction(0)


def _falling(a: int, m: int):
    """Ascending integer coefficients of k -> (k + a)...(k + a - m + 1) = m! C(k + a, m)."""
    p = [1]
    for i in range(m):
        p = poly.mul(p, [a - i, 1])
    return p


def tau_poly(w: WeightSystem, sign_convention: int = CALIBRATED_SIGN) -> TauPolynomial:
    """The exact weight-sum polynomial and Hilbert data of a system.

    The C(k + m - 1, m - 1) degree-k monomials in m generators use each
    generator with mean exponent k/m, so their weights total
    C(k + m - 1, m) sum(w).  A hypersurface of degree d drops the multiples
    of a degree-d monomial of weight lambda (one exists, see WeightSystem):
    the same counts at k - d, with lambda times their number added to the
    total.  As binomial polynomials in k these equal the level sums at
    every k >= d - n - 1 (the dropped terms vanish at k = d - n - 1, ...,
    d - 1), so they are tau_k and N(k) + 1.  Below d nothing is dropped:
    the unsubtracted lists, kept for chow_k, count those levels.
    """
    if sign_convention not in (1, -1):
        raise ValueError("sign convention must be +1 or -1")
    # numerators over m!, where m! C(k + m - 1, m - 1) = m (k + m - 1)...(k + 1)
    m, s = w.ambient_count, sum(w.generators)
    count, total = poly.mul([m], _falling(m - 1, m - 1)), poly.mul([s], _falling(m - 1, m))
    below = (tuple(sign_convention * c for c in total), tuple(count))
    if w.geometry.kind == "hypersurface":
        a = m - 1 - w.geometry.degree
        sub = poly.mul([m], _falling(a, m - 1))
        count = poly.add(count, sub, -1)
        total = poly.add(poly.add(total, _falling(a, m), -s), sub, -w.geometry.initial_weight)
    tau = tuple(sign_convention * c for c in total) + (0,) * (w.dim + 2 - len(total))
    return TauPolynomial(w.dim, math.factorial(m), tau, tuple(count), w.geometry.degree or 0, below)


def I_coefficient(tau: TauPolynomial) -> Fraction:
    """Leading (k^(n+1)) coefficient of tau."""
    return Fraction(tau.tau[-1], tau.den)


def chow_k(tau: TauPolynomial, k: int) -> Fraction:
    """Chow number tau_k / (N(k)+1) - k I / V at level k >= 1, as one Fraction
    of integer Horner values.  tau_k and N(k) + 1 are the level's own: below a
    hypersurface's degree those of its ambient space (a plane quintic has
    N(1) + 1 = 3, where the Hilbert polynomial 5k - 5 vanishes)."""
    if k < 1:
        raise ValueError("level k must be >= 1")
    top, count = tau.below if k < tau.degree else (tau.tau, tau.count)
    sections, v = poly.evaluate(count, k), tau.count[-1]
    return Fraction(poly.evaluate(top, k) * v - k * tau.tau[-1] * sections, sections * v)


def futaki(tau: TauPolynomial) -> Fraction:
    """Limit of the Chow numbers: (J - I * alpha_1) / V exactly.

    J is the k^n coefficient of tau and alpha_1 the subleading Hilbert
    ratio; over the lists' common denominator this is one Fraction.
    """
    n, v = tau.dim, tau.count[-1]
    return Fraction(tau.tau[n] * v - tau.tau[n + 1] * (tau.count[n - 1] if n else 0), v * v)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def weight_system_from_json(obj) -> WeightSystem:
    geo = obj["geometry"]
    if not isinstance(geo, dict):
        raise ValueError(f"geometry must be a JSON object, got {geo!r:.40}")
    geometry = Geometry(geo["type"], **{f: poly.json_int(geo[f], f) for f in ("degree", "initial_weight")
                                        if geo.get(f) is not None})
    gens = tuple(poly.json_int(w, "generator weight") for w in poly.json_list(obj["generators"], "generators"))
    return WeightSystem(dim=poly.json_int(obj["dim"], "dim"), generators=gens, geometry=geometry)


def frac_str(x: Fraction) -> str:
    """An exact rational as its "num/den" report string."""
    return f"{x.numerator}/{x.denominator}"


def weight_report(
    w: WeightSystem, kmax: int = 10, sign_convention: int = CALIBRATED_SIGN, kmin: int = 1
) -> dict:
    """Full exact report: tau coefficients, I, V, alpha_1, the chow_k table
    for levels kmin..kmax, Futaki."""
    tau = tau_poly(w, sign_convention)
    return {
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
        "chow": {str(k): frac_str(chow_k(tau, k)) for k in range(kmin, kmax + 1)},
        "futaki": frac_str(futaki(tau)),
    }
