"""Chow weights of hypersurface degenerations via pole orders.

For a degree-d hypersurface {F = 0} in P^N moved by a loop g(t) acting on
homogeneous coordinates, the path of Chow coordinates is carried by the
coefficient vector of F(adj(g) x) (the adjugate substitution absorbs
det g so everything stays polynomial in the loop entries).  The Chow
weight is the exact rational

    ord_t(det g) / (N + 1)  -  ord_t(coefficients of F(adj(g) x)) / (d N).

Only the order and the lowest coefficients of F(adj(g) x) are needed, so
they are read off its expansion modulo t^K, after shifting adj(g) by the
lowest order of its entries; K starts at 1 and doubles until some
coefficient is nonzero, up to the full t-span of the form.  The full
expansion (``transformed_form``) is the same computation at the full span.

Orientation is calibrated once and frozen: weights live on the section
side, so the dual pairing generator of a cycle-side loop is MINUS its
exponent diagonal.  With that convention the Chow weight of a pure
exponent loop t^A equals the pairing of the central fiber's moment matrix
with the section diagonal -A, it agrees with the k = 1 Chow number of the
weight-polynomial module, and for a general loop it is bounded above by
the central-fiber pairing.  The mirrored convention (substitute g itself,
all signs reversed) is available behind a flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, Optional, Tuple

import numpy as np

from kstab.cycles import Component, ProjectiveCycle, moment_matrix, pairing
from kstab.laurent import LaurentMatrix, LaurentPoly, _ser_add_mul, _window_list, factorize

__all__ = [
    "HypersurfaceForm",
    "chow_weight",
    "transformed_form",
    "central_fiber_form",
    "central_fiber_cycle",
    "section_diagonal",
    "ChowCheck",
    "check_chow_inequality",
    "form_from_json",
    "form_to_json",
]

_ZERO = Fraction(0)


def _cx(value) -> Tuple[Fraction, Fraction]:
    """Coerce to an exact complex rational (re, im)."""
    if isinstance(value, tuple):
        return (Fraction(value[0]), Fraction(value[1]))
    if isinstance(value, complex):
        return (Fraction(value.real), Fraction(value.imag))
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
            if isinstance(coeff, dict):
                lc = {int(e): _cx(v) for e, v in coeff.items()}
            else:
                lc = {0: _cx(coeff)}
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


def _adjugate(g: LaurentMatrix) -> LaurentMatrix:
    n = g.size
    if n == 1:
        return LaurentMatrix([[LaurentPoly.one()]])
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = LaurentMatrix(
                [
                    [g.entries[r][c] for c in range(n) if c != i]
                    for r in range(n)
                    if r != j
                ]
            )
            d = minor.det()
            out[i][j] = d if (i + j) % 2 == 0 else -d
    return LaurentMatrix(out)


def _substitution(form: HypersurfaceForm, g: LaurentMatrix, convention: str):
    """Lifted form, rows of P = t^(-nu) m with nu the lowest entry order of m,
    the order shift d*nu of F(m x) = t^(d nu) F(P x), and the span of t-powers
    F(P x) can have."""
    if g.size != form.nvars:
        raise ValueError("loop size does not match the number of variables")
    if convention == "calibrated":
        m = _adjugate(g)
    elif convention == "flipped":
        m = g
    else:
        raise ValueError("convention must be 'calibrated' or 'flipped'")
    lifted = form.canonical_lift()
    nonzero = [p for row in m.entries for p in row if not p.is_zero]
    nu = min((p.ord() for p in nonzero), default=0)
    rows = [[p.shift(-nu) for p in row] for row in m.entries]
    p_deg = max((p.deg() for p in nonzero), default=nu) - nu
    c_deg = max(max(lc) for lc in lifted.monomials.values())
    return lifted, rows, form.degree * nu, form.degree * p_deg + c_deg + 1


def _mv_mul(p: dict, q: dict, K: int) -> dict:
    """Product of two forms in y whose coefficients are series mod t^K."""
    out: dict = {}
    for e1, s1 in p.items():
        for e2, s2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = _ser_add_mul(out.get(e) or [_ZERO] * K, s1, s2, K)
    return out


def _window(lifted: HypersurfaceForm, rows, K: int) -> dict:
    """Coefficients of F(P y) modulo t^K: {y-exponents: (re, im)} with re and
    im length-K lists.

    The powers l_a^j of the linear forms l_a = sum_b P[a][b] y_b are real
    rational and computed once for j up to the top exponent of x_a in F;
    each monomial of F is a product of them, and F's complex coefficients
    enter only when the products are summed.
    """
    n = lifted.nvars
    powers = []
    for a in range(n):
        linear = {
            tuple(int(i == b) for i in range(n)): _window_list(p, K)
            for b, p in enumerate(rows[a])
            if not p.is_zero
        }
        pw = [None, linear]
        for _ in range(2, max(e[a] for e in lifted.monomials) + 1):
            pw.append(_mv_mul(pw[-1], linear, K))
        powers.append(pw)
    out: dict = {}
    for exps, lc in lifted.monomials.items():
        term = {(0,) * n: [Fraction(1)] + [_ZERO] * (K - 1)}
        for a, e in enumerate(exps):
            if e:
                term = _mv_mul(term, powers[a][e], K)
        c_re, c_im = [_ZERO] * K, [_ZERO] * K
        for e, (re, im) in lc.items():
            if e < K:
                c_re[e], c_im[e] = re, im
        for mono, ser in term.items():
            re, im = out.setdefault(mono, ([_ZERO] * K, [_ZERO] * K))
            _ser_add_mul(re, c_re, ser, K)
            _ser_add_mul(im, c_im, ser, K)
    return out


def transformed_form(
    form: HypersurfaceForm, g: LaurentMatrix, convention: str = "calibrated"
) -> HypersurfaceForm:
    """Coefficient path of the moved hypersurface, expanded in full.

    ``calibrated``: substitute the adjugate of g (the Chow-coordinate path of
    the cycle family g(t) * {F = 0}).  ``flipped``: substitute g itself.
    """
    lifted, rows, shift, span = _substitution(form, g, convention)
    monomials = {}
    for mono, (re, im) in _window(lifted, rows, span).items():
        lc = {e + shift: (re[e], im[e]) for e in range(span) if re[e] or im[e]}
        if lc:
            monomials[mono] = lc
    if not monomials:
        raise ValueError("transformed form vanished identically")
    return HypersurfaceForm(form.nvars, monomials)


def _lowest_terms(form: HypersurfaceForm, g: LaurentMatrix, convention: str):
    """t-order of the coefficients of F(m x) and the coefficients at that
    order, from the first of the windows t^1, t^2, t^4, ... (capped at the
    full span) that holds a nonzero coefficient."""
    lifted, rows, shift, span = _substitution(form, g, convention)
    K = 1
    while True:
        K = min(K, span)
        win = _window(lifted, rows, K)
        o = min((e for re, im in win.values() for e in range(K) if re[e] or im[e]), default=None)
        if o is not None:
            return o + shift, {mono: (re[o], im[o]) for mono, (re, im) in win.items() if re[o] or im[o]}
        if K == span:
            raise ValueError("transformed form vanished identically")
        K *= 2


def chow_weight(
    form: HypersurfaceForm,
    g: LaurentMatrix,
    volume: Optional[Fraction] = None,
    ambient: Optional[int] = None,
    convention: str = "calibrated",
) -> Fraction:
    """Exact Chow weight of the degeneration of {F = 0} along the loop g.

    Only the hypersurface case is supported (cycle dimension n = N - 1),
    where the Chow coordinates of the cycle are the coefficients of its
    defining form.  ``volume`` defaults to deg(F) / n! and is validated
    against it when supplied.
    """
    N = g.size - 1
    if ambient is not None and ambient != N:
        raise ValueError(f"ambient dimension {ambient} does not match loop size")
    n = N - 1
    if n < 0:
        raise ValueError("ambient projective space must have dimension >= 1")
    d = form.degree
    expected_v = Fraction(d, factorial(n))
    if volume is not None and Fraction(volume) != expected_v:
        raise ValueError(
            f"volume {volume} inconsistent with a degree-{d} hypersurface "
            f"(expected {expected_v})"
        )
    det = g.det()
    if det.is_zero:
        raise ValueError("degenerate loop")
    a_ord, _ = _lowest_terms(form, g, convention)
    if convention == "calibrated":
        return Fraction(det.ord(), N + 1) - Fraction(a_ord, d * (n + 1))
    return Fraction(a_ord, d * (n + 1)) - Fraction(det.ord(), N + 1)


def central_fiber_form(form: HypersurfaceForm, g: LaurentMatrix) -> Dict[tuple, complex]:
    """Initial form of the family at t = 0: lowest-order coefficients of the
    transformed form, as floating complex numbers."""
    _, lowest = _lowest_terms(form, g, "calibrated")
    return {exps: complex(float(re), float(im)) for exps, (re, im) in lowest.items()}


# ---------------------------------------------------------------------------
# degenerate/smooth plane conics as parametrized cycles
# ---------------------------------------------------------------------------


def _conic_matrix(mono: Dict[tuple, complex]) -> np.ndarray:
    q = np.zeros((3, 3), dtype=complex)
    for exps, c in mono.items():
        idx = [i for i, e in enumerate(exps) for _ in range(e)]
        if len(idx) != 2:
            raise ValueError("not a quadratic form")
        i, j = idx
        q[i, j] += c / (1 if i == j else 2)
        if i != j:
            q[j, i] += c / 2
    return q


def _line_cycle_between(p: np.ndarray, q: np.ndarray, mult: int) -> Component:
    coeffs = np.stack([q, p], axis=1)  # q + s p
    return Component(coeffs, mult)


def _point_on_conic(q: np.ndarray, rng_seed: int = 0) -> np.ndarray:
    """A point p with p^T q p = 0, found on a generic line."""
    rng = np.random.default_rng(rng_seed)
    for _ in range(64):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        # solve (a + s b)^T q (a + s b) = 0
        c2 = b @ q @ b
        c1 = a @ q @ b + b @ q @ a
        c0 = a @ q @ a
        if abs(c2) < 1e-13:
            continue
        disc = np.sqrt(c1 * c1 - 4 * c2 * c0 + 0j)
        for root in ((-c1 + disc) / (2 * c2), (-c1 - disc) / (2 * c2)):
            p = a + root * b
            nrm = np.linalg.norm(p)
            if nrm > 1e-9:
                p = p / nrm
                if abs(p @ q @ p) < 1e-9:
                    return p
    raise RuntimeError("failed to find a point on the conic")


def _parametrize_smooth_conic(q: np.ndarray) -> Component:
    """Degree-2 rational parametrization x(s) = (v^T q v) p - 2 (p^T q v) v
    for v = v0 + s v1, with p on the conic."""
    p = _point_on_conic(q)
    # choose v0, v1 spanning a complement of p
    basis = np.eye(3, dtype=complex)
    idx = np.argsort(np.abs(p))[::-1]
    v0, v1 = basis[idx[1]], basis[idx[2]]

    def coeff(vv0, vv1):
        # expand in s: v = v0 + s v1
        a0 = vv0 @ q @ vv0
        a1 = vv0 @ q @ vv1 + vv1 @ q @ vv0
        a2 = vv1 @ q @ vv1
        b0 = p @ q @ vv0 + vv0 @ q @ p
        b1 = p @ q @ vv1 + vv1 @ q @ p
        # x(s) = (a0 + a1 s + a2 s^2) p - (b0 + b1 s) (v0 + s v1)
        c0 = a0 * p - b0 * vv0
        c1 = a1 * p - b1 * vv0 - b0 * vv1
        c2 = a2 * p - b1 * vv1
        return np.stack([c0, c1, c2], axis=1)

    coeffs = coeff(v0, v1)
    comp = Component(coeffs)
    if comp.degree != 2:
        raise RuntimeError("conic parametrization degenerated")
    return comp


def central_fiber_cycle(form: HypersurfaceForm, g: LaurentMatrix) -> ProjectiveCycle:
    """Cycle of the flat limit at t = 0 for plane-conic degenerations.

    Classifies the initial quadratic form by rank: rank 3 gives a smooth
    conic, rank 2 two distinct lines, rank 1 a double line.
    """
    if form.nvars != 3 or form.degree != 2:
        raise ValueError("central fiber cycles are implemented for plane conics")
    mono = central_fiber_form(form, g)
    q = _conic_matrix(mono)
    q = q / np.max(np.abs(q))
    svals = np.linalg.svd(q, compute_uv=False)
    rank = int(np.sum(svals > 1e-9 * svals[0]))
    if rank == 3:
        return ProjectiveCycle(2, [_parametrize_smooth_conic(q)])
    if rank == 1:
        # q = c l l^T: the line l = 0 doubled
        _, _, vh = np.linalg.svd(q)
        l = vh[0].conj()
        comp = _line_component(l, 2)
        return ProjectiveCycle(2, [comp])
    # rank 2: two lines through the kernel point
    _, _, vh = np.linalg.svd(q)
    kernel = vh[2].conj()
    pts = []
    rng = np.random.default_rng(1)
    while len(pts) < 2:
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        c2, c1, c0 = b @ q @ b, a @ q @ b + b @ q @ a, a @ q @ a
        if abs(c2) < 1e-12:
            continue
        disc = np.sqrt(c1 * c1 - 4 * c2 * c0 + 0j)
        if abs(disc) < 1e-10:
            continue
        pts = [a + ((-c1 + s * disc) / (2 * c2)) * b for s in (1, -1)]
    comps = [_line_cycle_between(kernel, pt / np.linalg.norm(pt), 1) for pt in pts]
    return ProjectiveCycle(2, comps)


def _line_component(l: np.ndarray, mult: int) -> Component:
    """Parametrize the line l . x = 0 in P^2."""
    # two independent points on the line: null space of l
    _, _, vh = np.linalg.svd(l[None, :])
    p, q = vh[1].conj(), vh[2].conj()
    return _line_cycle_between(p, q, mult)


@dataclass
class ChowCheck:
    chow: Fraction
    pairing: float
    slack: float
    quad_error: float
    satisfied: bool
    weights: tuple
    exponents: tuple


def section_diagonal(g: LaurentMatrix) -> tuple:
    """Pairing generator of a cycle-side loop: minus its exponent diagonal.

    Weights are calibrated on the section side; a loop moving cycles with
    exponents A acts on sections with the dual diagonal -A.
    """
    fac = factorize(g)
    return tuple(-e for e in fac.exponent_vector())


def check_chow_inequality(
    g: LaurentMatrix,
    central: ProjectiveCycle,
    form: Optional[HypersurfaceForm] = None,
    ch: Optional[Fraction] = None,
    order: int = 48,
    tol: float = 1e-6,
) -> ChowCheck:
    """Verify chow_weight <= <M(central fiber), A> + tol.

    ``A`` is extracted from the loop factorization (section-side diagonal,
    placed on the original basis).  Either a precomputed Chow weight ``ch``
    or the hypersurface form must be supplied.  Equality is expected, up to
    quadrature error, for pure exponent loops t^A.
    """
    if ch is None:
        if form is None:
            raise ValueError("need either ch or the hypersurface form")
        ch = chow_weight(form, g)
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


def form_from_json(obj, nvars: Optional[int] = None) -> HypersurfaceForm:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("form input must be a JSON object")
    if "components" in obj and "form" not in obj:
        raise ValueError(
            "Chow form unavailable: input is a parametrized cycle, not a "
            "hypersurface form"
        )
    if "form" in obj:
        obj = obj["form"]
        if not isinstance(obj, dict):
            raise ValueError("\"form\" must be a JSON object")
    mono = {}
    for key, val in obj.items():
        exps = tuple(int(x) for x in key.split(","))
        if isinstance(val, list) and len(val) == 2 and not isinstance(val[0], list):
            mono[exps] = (Fraction(val[0]).limit_denominator(10**12), Fraction(val[1]).limit_denominator(10**12))
        else:
            mono[exps] = val
    if not mono:
        raise ValueError("zero form")
    nv = nvars or len(next(iter(mono)))
    return HypersurfaceForm.from_dict(nv, mono)


def form_to_json(form: HypersurfaceForm) -> dict:
    out = {}
    for exps, lc in form.monomials.items():
        key = ",".join(str(e) for e in exps)
        if set(lc) == {0}:
            re, im = lc[0]
            out[key] = [float(re), float(im)]
        else:
            out[key] = {str(e): [float(v[0]), float(v[1])] for e, v in lc.items()}
    return {"form": out}
