"""Chow weights of hypersurface degenerations via pole orders.

For a degree-d hypersurface {F = 0} in P^N moved by a loop g(t) acting on
homogeneous coordinates, the path of Chow coordinates is carried by the
coefficient vector of F(adj(g) x).  The Chow weight is the exact rational

    ord_t(det g) / (N + 1)  -  ord_t(coefficients of F(adj(g) x)) / (d N).

It is computed from the loop's verified normal form g = L t^A R
(``laurent.factorize``).  As adj(g) = det(g) R^(-1) t^(-A) L^(-1),

    F(adj(g) x) = det(g)^d F(m L^(-1) x),   m = R^(-1) t^(-A),

and L^(-1) is invertible over the power series ring (L(0) is invertible),
so the order of F(adj(g) x) is d ord det g + ord F(m y), with
ord det g = sum of the weights, and the lowest coefficients of F(m y) are
the form of Y_0 = L(0)^(-1) X_0 up to a nonzero constant.  Only the order
and the lowest coefficients of F(m y) are needed, so they are read off its
expansion modulo t^K (Horner's rule, one variable at a time) after
shifting m by the lowest order of its entries; K doubles from 1 until
some coefficient is nonzero, up to the full t-span of the form, at which
``transformed_form`` computes the full expansion.

Orientation is calibrated once and frozen: weights live on the section
side, so the dual pairing generator of a cycle-side loop is MINUS its
exponent diagonal.  With that convention the Chow weight of a pure
exponent loop t^A equals the pairing of the central fiber's moment matrix
with the section diagonal -A, it agrees with the k = 1 Chow number of the
weight-polynomial module, and for a general loop it is bounded above by
the central-fiber pairing.  The mirrored convention (F(g x), all signs
reversed) is available behind a flag; as R(0) is unit triangular, its
order is that of F(m y) with m = L t^A.  The central fiber of a plane
conic is decomposed exactly along the loop's torus in the frame of L(0),
where its form is the lowest part of F(m y), and mapped back by L(0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from kstab.laurent import FactorizationError, LaurentMatrix, LaurentPoly, _check_span, _gathered, factorize
from kstab.poly import json_number

__all__ = [
    "HypersurfaceForm",
    "chow_weight",
    "transformed_form",
    "central_fiber_cycle",
    "ChowCheck",
    "check_chow_inequality",
    "form_from_json",
]

_ZERO = Fraction(0)
_ONE = LaurentPoly.one()


def _cx(value) -> Tuple[Fraction, Fraction]:
    """Coerce to an exact complex rational (re, im)."""
    if isinstance(value, tuple):
        return (Fraction(value[0]), Fraction(value[1]))
    return (Fraction(value), _ZERO)


@dataclass(frozen=True)
class HypersurfaceForm:
    """Multivariate form: map from exponent tuples to complex-rational
    Laurent coefficients (a plain number means a constant coefficient)."""

    nvars: int
    monomials: Dict[tuple, dict]

    @classmethod
    def from_dict(cls, nvars: int, mono: dict) -> "HypersurfaceForm":
        out = {}
        degree = None
        for exps, coeff in mono.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError("monomial exponent length does not match nvars")
            if degree is None:
                degree = sum(exps)
            elif sum(exps) != degree:
                raise ValueError("form is not homogeneous")
            if degree < 1 or min(exps) < 0:
                raise ValueError("a hypersurface form needs degree >= 1 and exponents >= 0")
            lc = {int(e): _cx(v) for e, v in (coeff.items() if isinstance(coeff, dict) else [(0, coeff)])}
            lc = {e: v for e, v in lc.items() if any(v)}
            if lc:
                out[exps] = lc
        if not out:
            raise ValueError("zero form")
        return cls(nvars, out)

    @property
    def degree(self) -> int:
        return sum(next(iter(self.monomials)))

    def canonical_lift(self) -> "HypersurfaceForm":
        """Strip the common power of t from all coefficients."""
        m = min(min(lc) for lc in self.monomials.values())
        if m == 0:
            return self
        return HypersurfaceForm(
            self.nvars,
            {exps: {e - m: v for e, v in lc.items()} for exps, lc in self.monomials.items()},
        )


def _substitution(form: HypersurfaceForm, g: LaurentMatrix, convention: str):
    """Lifted form, rows of P = t^(-nu) m with nu the lowest entry order of m,
    the order shift d*nu of F(m y) = t^(d nu) F(P y), the span of t-powers
    F(P y) can have, and the factorization g = L t^A R that m comes from:
    m = R^(-1) t^(-A) (calibrated) or L t^A (flipped)."""
    if g.size != form.nvars:
        raise ValueError("loop size does not match the number of variables")
    if g.size < 2:
        raise ValueError("ambient projective space must have dimension >= 1")
    if convention not in ("calibrated", "flipped"):
        raise ValueError("convention must be 'calibrated' or 'flipped'")
    fac = factorize(g)
    e = fac.exponent_vector()
    if convention == "calibrated":
        m = fac.rinv.scale_columns([-x for x in e])
    else:
        m = fac.left.scale_columns(e)
    lifted = form.canonical_lift()
    nonzero = [p for row in m.entries for p in row if not p.is_zero]
    nu = min((p.ord() for p in nonzero), default=0)
    rows = [[p.shift(-nu) for p in row] for row in m.entries]
    p_deg = max((p.deg() for p in nonzero), default=nu) - nu
    c_deg = max(max(lc) for lc in lifted.monomials.values())
    return lifted, rows, form.degree * nu, form.degree * p_deg + c_deg + 1, fac


def _window(lifted: HypersurfaceForm, rows, K: int) -> dict:
    """Coefficients of F(P y) modulo t^K: {y-exponents: (re, im)} with re and
    im Laurent polynomials.

    Horner's rule in one variable at a time: with F = sum_j x_0^j F_j and
    l_a = sum_b P[a][b] y_b, F(P y) = (...(G_d l_0 + G_(d-1)) l_0 + ...) + G_0
    where G_j = F_j(l_1, ..., l_(n-1)) is expanded the same way, so every
    product is a form times a linear form, summed in one ``dot`` per monomial.
    The real and imaginary parts of the coefficient of y^e, read straight off
    F's sparse coefficients, sit under the keys 2 sum_b e_b (d + 1)^b and
    that plus 1, so a real form has no imaginary pass.
    """
    n, base = lifted.nvars, lifted.degree + 1
    lines = [[(2 * base ** b, p.truncate(K)) for b, p in enumerate(row) if p.coef and p.low < K] for row in rows]

    def expand(terms, a):
        """G = F_a(l_a, ..., l_(n-1)) for terms of F that agree in x_0 .. x_(a-1)."""
        if a == n:
            ((_, lc),) = terms
            parts = (_gathered([(e, c[i].numerator, c[i].denominator) for e, c in lc.items() if e < K and c[i]])
                     for i in (0, 1))
            return {i: c for i, c in enumerate(parts) if c.coef}
        groups: dict = {}
        for exps, lc in terms:
            groups.setdefault(exps[a], []).append((exps, lc))
        acc: dict = {}
        for j in range(max(groups), -1, -1):  # acc * l_a + G_j
            pairs: dict = {}
            for key, c in acc.items():
                for step, p in lines[a]:
                    pairs.setdefault(key + step, []).append((c, p))
            for key, c in (expand(groups[j], a + 1) if j in groups else {}).items():
                pairs.setdefault(key, []).append((c, _ONE))
            acc = {}
            for key, t in pairs.items():
                c = t[0][0] if len(t) == 1 and t[0][1] is _ONE else LaurentPoly.dot(t, K)
                if c.coef:
                    acc[key] = c
        return acc

    out, zero = expand(list(lifted.monomials.items()), 0), LaurentPoly()
    return {tuple(key // 2 // base ** b % base for b in range(n)): (out.get(key & -2, zero), out.get(key | 1, zero))
            for key in out}


def transformed_form(
    form: HypersurfaceForm, g: LaurentMatrix, convention: str = "calibrated"
) -> HypersurfaceForm:
    """F(m y) expanded in full, with g = L t^A R factored.

    ``calibrated``: m = R^(-1) t^(-A); the Chow-coordinate path of the cycle
    family g(t) * {F = 0} is F(adj(g) x) = det(g)^d F(m L^(-1) x).
    ``flipped``: m = L t^A, and F(g x) = F(m R x).  L^(-1) and R^(-1) are
    invertible over the power series ring, so the order of F(adj(g) x) is
    that of F(m y) plus d ord det g, and the order of F(g x) that of F(m y).
    A result spanning more than ``laurent.MAX_SPAN`` t-exponents is refused.
    """
    lifted, rows, shift, span, _ = _substitution(form, g, convention)
    _check_span([shift, shift + span - 1], "t-exponents of F(m y)")
    return HypersurfaceForm(form.nvars, {
        mono: {e + shift: (re.coefficient(e), im.coefficient(e)) for e in sorted(re.coeffs.keys() | im.coeffs.keys())}
        for mono, (re, im) in _window(lifted, rows, span).items()})


def _lowest_terms(form: HypersurfaceForm, g: LaurentMatrix, convention: str):
    """t-order of the coefficients of F(m y), the coefficients at that order
    and the factorization of g, from the first of the windows t^1, t^2,
    t^4, ... (capped at the full span) that holds a nonzero coefficient."""
    lifted, rows, shift, span, fac = _substitution(form, g, convention)
    K = 1
    while True:
        K = min(K, span)
        win = _window(lifted, rows, K)
        o = min((p.ord() for pair in win.values() for p in pair if not p.is_zero), default=None)
        if o is not None:
            lowest = ((mono, (re.coefficient(o), im.coefficient(o))) for mono, (re, im) in win.items())
            return o + shift, {mono: c for mono, c in lowest if any(c)}, fac
        if K == span:  # m is invertible, so only a wrong factorization gets here
            raise FactorizationError("F(m y) vanished identically")
        K *= 2


def chow_weight(form: HypersurfaceForm, g: LaurentMatrix, convention: str = "calibrated") -> Fraction:
    """Exact Chow weight of the degeneration of {F = 0} along the loop g.

    Only the hypersurface case is supported (cycle dimension n = N - 1),
    where the Chow coordinates of the cycle are the coefficients of its
    defining form.  The ambient dimension N is the loop size minus one, and
    the volume is that of a degree-d hypersurface, deg(F) / n!, so neither
    is an argument.
    """
    N = g.size - 1
    n = N - 1
    d = form.degree
    o, _, fac = _lowest_terms(form, g, convention)
    det_ord = sum(fac.weights)  # checked against ord det g by factorize
    if convention == "calibrated":
        return Fraction(det_ord, N + 1) - Fraction(d * det_ord + o, d * (n + 1))
    return Fraction(o, d * (n + 1)) - Fraction(det_ord, N + 1)


def _cmul(u, v):
    """Product of two exact complex rationals (re, im)."""
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def central_fiber_cycle(form: HypersurfaceForm, g: LaurentMatrix) -> "ProjectiveCycle":
    """Cycle of the flat limit X_0 = lim g(t) {F = 0} of a plane conic, in
    the original coordinates, built exactly from the loop's torus.

    With g = L t^A R factored, the form of Y_0 = L(0)^(-1) X_0 is the
    lowest part of F(R^(-1) t^(-A) y), up to a nonzero constant.  A limit
    invariant under a nontrivial torus has its form supported on a lattice
    segment with primitive direction delta, so that
    Y_0 = y^mu prod_r (y^delta+ - r y^delta-): the coordinate line
    {y_a = 0} with multiplicity mu_a and, for each root r of the edge
    polynomial, the monomial curve s -> (c_a s^p_a) with p orthogonal to
    delta and c^delta = r.  A double root is an exact zero discriminant
    of the edge coefficients.  Each component is mapped back by L(0).
    Raises ValueError when the form of Y_0 is not supported on a segment,
    as for a loop whose weights are all equal (g = t^c L(t), a change of
    frame) and a conic that is not toric.
    """
    import numpy as np

    from kstab.cycles import Component, ProjectiveCycle

    if form.nvars != 3 or form.degree != 2:
        raise ValueError("central fiber cycles are implemented for plane conics")
    _, coeff, fac = _lowest_terms(form, g, "calibrated")
    support = sorted(coeff)
    first, last = support[0], support[-1]  # lexicographic order runs along a line
    m = math.gcd(*(b - a for a, b in zip(first, last)))
    delta = [(b - a) // (m or 1) for a, b in zip(first, last)]
    edge = [coeff.get(tuple(a + k * d for a, d in zip(first, delta)), (_ZERO, _ZERO)) for k in range(m + 1)]
    if sum(any(c) for c in edge) != len(support):
        raise ValueError(
            "the central fiber is not torus-invariant in the frame of L(0): its form "
            f"is not supported on a lattice segment (loop weights {list(fac.weights)})"
        )
    parts = []
    for a, mult in enumerate(min(u, v) for u, v in zip(first, last)):
        if mult:
            line = np.zeros((3, 2))
            line[[b for b in range(3) if b != a], [0, 1]] = 1.0
            parts.append((line, mult))
    z = [complex(float(re), float(im)) for re, im in edge]
    if m == 2 and _cmul(edge[1], edge[1]) == tuple(4 * x for x in _cmul(edge[0], edge[2])):
        roots = [(-z[1] / (2 * z[2]), 2)]
    else:
        roots = [(r, 1) for r in np.roots(z[::-1])]
    p = [delta[1] - delta[2], delta[2] - delta[0], delta[0] - delta[1]]
    p = [x - min(p) for x in p]
    p = [x // (math.gcd(*p) or 1) for x in p]
    for r, mult in roots:
        curve = np.zeros((3, max(p) + 1), dtype=complex)
        curve[range(3), p] = np.exp(np.log(r) * np.array(delta) / np.dot(delta, delta))
        parts.append((curve, mult))
    l0 = np.array(fac.left.value_at_zero(), dtype=float)
    # orthonormal points on a line keep its quadrature well conditioned
    return ProjectiveCycle(2, [Component(np.linalg.qr(l0 @ c)[0] if c.shape[1] == 2 else l0 @ c, mult)
                               for c, mult in parts])


@dataclass
class ChowCheck:
    chow: Fraction
    pairing: float
    slack: float
    quad_error: float
    satisfied: bool
    weights: tuple
    exponents: tuple


def check_chow_inequality(
    g: LaurentMatrix,
    central: "ProjectiveCycle",
    ch: Fraction,
    order: int = 48,
    tol: float = 1e-6,
) -> ChowCheck:
    """Verify the Chow weight ``ch`` <= <M(central fiber), -A> + tol.

    The pairing generator of a cycle-side loop is minus its exponent
    diagonal A (weights are calibrated on the section side), read off the
    loop factorization and placed on the original basis; it is returned as
    ``exponents``.  Equality is expected, up to quadrature error, for pure
    exponent loops t^A.
    """
    from kstab.cycles import moment_matrix, pairing

    fac = factorize(g)
    a_vec = [-e for e in fac.exponent_vector()]
    res = moment_matrix(central, order=order)
    pair = pairing(res.matrix, a_vec)
    slack = pair - float(ch)
    return ChowCheck(
        chow=ch,
        pairing=pair,
        slack=slack,
        quad_error=res.quad_error,
        satisfied=slack >= -tol,
        weights=fac.weights,
        exponents=tuple(a_vec),
    )


# ---------------------------------------------------------------------------
# JSON interface: {"form": {"1,0,1": [re, im], ...}}
# ---------------------------------------------------------------------------


def form_from_json(obj) -> HypersurfaceForm:
    """Parse a form; its number of variables is the length of a key."""
    if "components" in obj and "form" not in obj:
        raise ValueError(
            "Chow form unavailable: input is a parametrized cycle, not a "
            "hypersurface form"
        )
    if "form" in obj:
        obj = obj["form"]
        if not isinstance(obj, dict):
            raise ValueError("\"form\" must be a JSON object")
    mono, number = {}, functools.partial(json_number, field="form coefficient", exact=True)
    for key, val in obj.items():
        exps = tuple(int(x) for x in key.split(","))
        if isinstance(val, list) and len(val) == 2 and not isinstance(val[0], list):
            mono[exps] = tuple(number(x) for x in val)
        else:  # a number, or Laurent coefficients by exponent
            mono[exps] = {e: number(v) for e, v in val.items()} if isinstance(val, dict) else number(val)
    if not mono:
        raise ValueError("zero form")
    return HypersurfaceForm.from_dict(len(next(iter(mono))), mono)
