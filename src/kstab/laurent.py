"""Exact Laurent-polynomial matrices and loop factorization.

A *loop* is a square matrix of Laurent polynomials in one variable t over
exact rationals whose determinant is a nonzero Laurent polynomial, i.e. an
invertible matrix family on a small punctured disc around t = 0.  The central
operation is :func:`factorize`, which writes a loop as

    g = left * t^A * right

where ``left`` is a polynomial matrix invertible at t = 0, ``A`` is an
integer exponent diagonal, and ``right`` is a polynomial matrix with unit
diagonal that is triangular with bounded entry degrees in the basis order
that sorts the exponents.  All arithmetic in this module is exact; no
floating point is used anywhere.

A :class:`LaurentPoly` is an integer offset times a trimmed
:mod:`kstab.poly` coefficient list, the one exact polynomial format of the
package: sums and products (optionally truncated below t^K) go through
``poly.add`` and ``poly.mul``, and the factorization and the Chow window
work on entries truncated modulo t^K.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from kstab import poly

__all__ = [
    "DegenerateLoopError",
    "ZeroLaurentError",
    "FactorizationError",
    "LaurentPoly",
    "LaurentMatrix",
    "LoopFactorization",
    "multiply",
    "factorize",
    "normalize",
    "pole_order_vector",
    "section_degree",
    "loop_from_json",
    "loop_to_json",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DegenerateLoopError(ValueError):
    """Raised when a loop has identically zero determinant."""


class ZeroLaurentError(ValueError):
    """Raised when an order/degree is requested of the zero element."""


class FactorizationError(ArithmeticError):
    """Raised when a computed factorization fails its exact check (an
    internal invariant; the CLI exits 3)."""


# Largest exponent span (highest minus lowest exponent with a nonzero
# coefficient) of a polynomial read from triples: coefficients are stored
# densely, so the span, not the number of terms, sets time and memory.
MAX_SPAN = 2 ** 20


def _check_span(exps, what="exponents"):
    if exps and max(exps) - min(exps) > MAX_SPAN:
        raise ValueError(f"{what} {min(exps)}..{max(exps)} span more than 2^20 = {MAX_SPAN}")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class LaurentPoly:
    """Finite Laurent polynomial t^low * (coef[0] + coef[1] t + ...) over Q.

    ``low`` is an integer offset and ``coef`` a trimmed :mod:`kstab.poly`
    list whose first entry is nonzero; zero is low = 0, coef = [].  Values
    are immutable, so shifted copies share their lists.
    """

    __slots__ = ("low", "coef")

    def __init__(self, coeffs=None):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs or ()
        items = [(int(e), v) for e, v in ((e, _as_fraction(v)) for e, v in items) if v]
        low = min((e for e, _ in items), default=0)
        coef = [_ZERO] * (max((e for e, _ in items), default=low - 1) - low + 1)
        for e, v in items:
            coef[e - low] += v
        stripped = _laurent(low, coef)
        self.low, self.coef = stripped.low, stripped.coef

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: _ONE})

    @classmethod
    def t_power(cls, e: int, c=1) -> "LaurentPoly":
        return cls({int(e): _as_fraction(c)})

    @classmethod
    def from_triples(cls, triples) -> "LaurentPoly":
        """Build from ``[[exp, num, den], ...]`` triples whose nonzero terms
        span at most ``MAX_SPAN`` exponents."""
        triples = [(int(e), int(n), int(d)) for e, n, d in triples]
        if any(d == 0 for _, _, d in triples):
            raise ValueError("coefficient with denominator 0")
        _check_span([e for e, n, _ in triples if n])
        return cls((e, Fraction(n, d)) for e, n, d in triples)

    # -- structure ----------------------------------------------------
    @property
    def coeffs(self) -> dict:
        return {self.low + i: v for i, v in enumerate(self.coef) if v}

    def coefficient(self, e: int) -> Fraction:
        i = int(e) - self.low
        return self.coef[i] if 0 <= i < len(self.coef) else _ZERO

    @property
    def is_zero(self) -> bool:
        return not self.coef

    def ord(self) -> int:
        """Lowest exponent with nonzero coefficient."""
        if not self.coef:
            raise ZeroLaurentError("zero Laurent polynomial has no order")
        return self.low

    def deg(self) -> int:
        if not self.coef:
            raise ZeroLaurentError("zero Laurent polynomial has no degree")
        return self.low + len(self.coef) - 1

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not (self.coef and other.coef):
            return other if not self.coef else self
        low, a, b = self.low, self.coef, other.coef
        if other.low != low:
            pad = [_ZERO] * abs(other.low - low)
            low, a, b = (low, a, pad + b) if other.low > low else (other.low, b, pad + a)
        return _laurent(low, poly.add(a, b))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return _laurent(self.low, [-v for v in self.coef])

    def mul(self, other: "LaurentPoly", K=None) -> "LaurentPoly":
        """Product, or only its terms below t^K when K is given."""
        low = self.low + other.low
        # the lowest coefficients multiply to a nonzero one: nothing to strip
        coef = poly.mul(self.coef, other.coef, None if K is None else K - low)
        out = LaurentPoly.__new__(LaurentPoly)
        out.low, out.coef = (low, coef) if coef else (0, [])
        return out

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self.mul(other)

    def truncate(self, K: int) -> "LaurentPoly":
        """The terms below t^K."""
        return _laurent(self.low, self.coef[: max(K - self.low, 0)])

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by t^e."""
        return _laurent(self.low + e, self.coef)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.low == other.low and self.coef == other.coef

    def to_triples(self):
        return [[e, v.numerator, v.denominator] for e, v in self.coeffs.items()]

    def __repr__(self) -> str:
        if not self.coef:
            return "0"
        parts = []
        for e, v in self.coeffs.items():
            if e == 0:
                parts.append(f"{v}")
            elif e == 1:
                parts.append(f"{v}*t")
            else:
                parts.append(f"{v}*t^{e}")
        return " + ".join(parts)


def _laurent(low: int, coef) -> LaurentPoly:
    """t^low * coef as a LaurentPoly, the zeros at both ends of coef removed."""
    if not (coef and coef[0] and coef[-1]):
        start = next((i for i, v in enumerate(coef) if v), len(coef))
        end = len(coef)
        while end > start and not coef[end - 1]:
            end -= 1
        low, coef = (low + start, coef[start:end]) if start < end else (0, [])
    out = LaurentPoly.__new__(LaurentPoly)
    out.low, out.coef = low, coef
    return out


class LaurentMatrix:
    """Square matrix of :class:`LaurentPoly` entries."""

    __slots__ = ("size", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.size = len(self.entries)
        for row in self.entries:
            if len(row) != self.size:
                raise ValueError("loop matrix must be square")

    @classmethod
    def identity(cls, size: int) -> "LaurentMatrix":
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return cls(
            [[one if i == j else zero for j in range(size)] for i in range(size)]
        )

    @classmethod
    def exponent_diagonal(cls, exps) -> "LaurentMatrix":
        """diag(t^{e_0}, ..., t^{e_N})."""
        size = len(exps)
        zero = LaurentPoly.zero()
        return cls(
            [
                [LaurentPoly.t_power(exps[i]) if i == j else zero for j in range(size)]
                for i in range(size)
            ]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.size == other.size and self.entries == other.entries

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return multiply(self, other)

    def shift(self, e: int) -> "LaurentMatrix":
        """Scalar multiplication by t^e."""
        return LaurentMatrix([[p.shift(e) for p in row] for row in self.entries])

    def scale_columns(self, exps) -> "LaurentMatrix":
        return LaurentMatrix(
            [[row[j].shift(exps[j]) for j in range(self.size)] for row in self.entries]
        )

    def apply(self, vector):
        """Matrix times a vector of Laurent polynomials."""
        if len(vector) != self.size:
            raise ValueError("vector length does not match loop size")
        out = []
        for i in range(self.size):
            acc = LaurentPoly.zero()
            for j in range(self.size):
                acc = acc + self.entries[i][j] * vector[j]
            out.append(acc)
        return out

    def det(self) -> LaurentPoly:
        """Exact determinant by fraction-free (Bareiss) elimination over
        Q[t, 1/t]: at step k every entry becomes
        (a_kk a_ij - a_ik a_kj) / a_(k-1)(k-1), a division that is exact.
        """
        n = self.size
        a = [list(row) for row in self.entries]
        sign, prev = 1, None
        for k in range(n - 1):
            piv = next((r for r in range(k, n) if not a[r][k].is_zero), None)
            if piv is None:
                return LaurentPoly.zero()
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            akk, row_k = a[k][k], a[k]
            for row in a[k + 1 :]:
                neg_aik = -row[k]
                for j in range(k + 1, n):
                    num = akk * row[j] + neg_aik * row_k[j]
                    if k:  # exact: prev.coef has a nonzero constant term
                        num = _laurent(num.low - prev.low, poly.quorem(num.coef, prev.coef)[0])
                    row[j] = num
            prev = akk
        return a[-1][-1] if sign > 0 else -a[-1][-1]

    def value_at_zero(self):
        """Matrix of constant coefficients; requires no negative exponents."""
        vals = []
        for row in self.entries:
            r = []
            for p in row:
                if not p.is_zero and p.ord() < 0:
                    raise ValueError("entry has a pole at t=0")
                r.append(p.coefficient(0))
            vals.append(r)
        return vals

    def is_holomorphic(self) -> bool:
        return all(p.is_zero or p.ord() >= 0 for row in self.entries for p in row)

    def __repr__(self) -> str:
        rows = [", ".join(repr(p) for p in row) for row in self.entries]
        return "LaurentMatrix([\n  " + "\n  ".join(rows) + "\n])"


def multiply(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """Exact product of two loops of equal size."""
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    n = a.size
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = LaurentPoly.zero()
            for k in range(n):
                p = a.entries[i][k]
                q = b.entries[k][j]
                if not (p.is_zero or q.is_zero):
                    acc = acc + p * q
            row.append(acc)
        out.append(row)
    return LaurentMatrix(out)


def _rational_det(rows) -> Fraction:
    """Determinant of a matrix of Fractions by fraction Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    det = _ONE
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r][c]:
                piv = r
                break
        if piv is None:
            return _ZERO
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


@dataclass(frozen=True)
class LoopFactorization:
    """Normal form g = left * T * right.

    ``weights`` is the nonincreasing vector of exponents (the elementary
    divisors of the loop over the local ring at t = 0).  ``order`` records
    which original basis index carries which weight: weight ``weights[k]``
    sits on basis index ``order[k]``, so the exponent diagonal T is
    ``diag(t^{e_0}, ..., t^{e_N})`` with ``e_{order[k]} = weights[k]``.
    ``right`` has unit diagonal, vanishes at positions (order[i], order[j])
    for i < j, and its entry at (order[i], order[j]) for i > j is a
    polynomial in t of degree < weights[j] - weights[i].
    """

    left: LaurentMatrix
    weights: tuple
    right: LaurentMatrix
    order: tuple

    def exponent_vector(self):
        """Exponents placed on the original basis: e[order[k]] = weights[k]."""
        return _on_basis(self.order, self.weights)

    def middle(self) -> LaurentMatrix:
        return LaurentMatrix.exponent_diagonal(self.exponent_vector())

    def reassemble(self) -> LaurentMatrix:
        return multiply(self.left, multiply(self.middle(), self.right))

    def right_inverse(self) -> LaurentMatrix:
        """Exact inverse of the unit-diagonal triangular factor."""
        return _invert_unitriangular(self.right, list(self.order))


# ---------------------------------------------------------------------------
# factorization: valuation echelon on entries truncated modulo t^K
# ---------------------------------------------------------------------------


class _WindowTooSmall(Exception):
    pass


def _echelon(rows, size, K):
    """Reduce spanning rows to the triangular normal-form basis.

    Returns (sigma, wts, basis) with wts[0] >= ... >= wts[size-1]; basis[k]
    is a row vector supported on coordinates sigma[0..k], whose sigma[k]
    entry is exactly t^{wts[k]} and whose sigma[j] entry (j < k) has
    exponents confined to [wts[k], wts[j]).
    """
    active = list(range(size))
    sigma = [0] * size
    wts = [0] * size
    basis = [None] * size

    for pos in range(size - 1, -1, -1):
        best = None  # (ord, -coord, row)
        for i in active:
            for c in range(size):
                p = rows[i][c]
                if not p.is_zero:
                    key = (p.ord(), -c, i)
                    if best is None or key < best:
                        best = key
        if best is None:
            raise _WindowTooSmall
        m, negc, istar = best
        cstar = -negc

        # normalize the pivot row so its cstar entry becomes exactly t^m; the
        # unit's inverse is needed only below t^(K - least order of the rest)
        piv_row = rows[istar]
        rest = [p.ord() for c, p in enumerate(piv_row) if c != cstar and not p.is_zero]
        if rest:
            uinv = _laurent(0, poly.inv(piv_row[cstar].coef, K - min(rest)))
            piv_row = rows[istar] = [uinv.mul(p, K) for p in piv_row]
        piv_row[cstar] = LaurentPoly.t_power(m)

        for i in active:
            ent = rows[i][cstar]
            if i == istar or ent.is_zero:
                continue
            neg_mu = -ent.shift(-m)  # ord(ent) >= m: exact division by t^m
            rows[i] = [p + neg_mu.mul(q, K) for p, q in zip(rows[i], piv_row)]

        sigma[pos] = cstar
        wts[pos] = m
        basis[pos] = piv_row
        active.remove(istar)

    # second pass: reduce entries below each pivot exponent window
    for k in range(1, size):
        for j in range(k - 1, -1, -1):
            beta = basis[k][sigma[j]]
            neg_q = (beta.truncate(wts[j]) - beta).shift(-wts[j])
            if not neg_q.is_zero:
                basis[k] = [p + neg_q.mul(q, K) for p, q in zip(basis[k], basis[j])]
    return sigma, wts, basis


def factorize(g: LaurentMatrix) -> LoopFactorization:
    """Factor a loop into the normal form left * t^A * right.

    Raises :class:`DegenerateLoopError` when det g = 0, and
    :class:`FactorizationError` if the result fails its exact check.  The
    result is deterministic: weights are sorted nonincreasing and ties
    between equal weights keep the original basis order.

    The echelon runs on the entries modulo t^K, with K = 1, 2, 4, ... until
    it finds all n pivots.  Each pivot has the least order among the active
    entries, so every elimination is exact modulo t^K and any window that
    finds the pivots gives the exact answer.  The weights of the shifted
    loop t^(-nu) g are >= 0 and sum to its ord det, so the window
    t^(ord det + 1) always finds them.
    """
    det = g.det()
    if det.is_zero:
        raise DegenerateLoopError("degenerate loop: determinant vanishes identically")
    n = g.size

    nu = min(
        (p.ord() for row in g.entries for p in row if not p.is_zero), default=0
    )
    shifted = g.shift(-nu)  # polynomial entries
    cap = det.ord() - n * nu + 1
    K = 1
    while True:
        rows = [[p.truncate(K) for p in row] for row in shifted.entries]
        try:
            sigma, wts, basis = _echelon(rows, n, K)
            break
        except _WindowTooSmall:
            if K == cap:
                raise FactorizationError(f"no pivot within the window t^{cap}") from None
            K = min(2 * K, cap)
    fac = _assemble(g, sigma, wts, basis, nu, det)
    if fac is None:
        raise FactorizationError("loop factorization failed its exact check")
    return fac


def _assemble(g, sigma, wts, basis, nu, det):
    """Build and exactly verify the factorization; None if a check fails."""
    n = g.size
    weights = tuple(w + nu for w in wts)
    if any(weights[k] < weights[k + 1] for k in range(n - 1)):
        return None

    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    right_entries = [[zero] * n for _ in range(n)]
    for k in range(n):
        right_entries[sigma[k]][sigma[k]] = one
        for j in range(k):
            p = basis[k][sigma[j]]
            if p.is_zero:
                continue
            if p.ord() < wts[k]:
                return None
            right_entries[sigma[k]][sigma[j]] = p.shift(-wts[k])
        # positions sigma[k], sigma[j] with j > k must vanish
        for j in range(k + 1, n):
            if not basis[k][sigma[j]].is_zero:
                return None
    right = LaurentMatrix(right_entries)

    # degree bounds: entry (sigma[i], sigma[j]), i > j, has degree < w_j - w_i
    for i in range(n):
        for j in range(i):
            p = right_entries[sigma[i]][sigma[j]]
            if not p.is_zero and p.deg() >= weights[j] - weights[i]:
                return None

    rinv = _invert_unitriangular(right, sigma)
    left = multiply(g, rinv).scale_columns([-e for e in _on_basis(sigma, weights)])

    if not left.is_holomorphic():
        return None
    if _rational_det(left.value_at_zero()) == 0:
        return None

    fac = LoopFactorization(
        left=left, weights=weights, right=right, order=tuple(sigma)
    )
    if fac.reassemble() != g:
        return None
    if sum(weights) != det.ord():
        return None
    return fac


def _on_basis(order, weights):
    """e[order[k]] = weights[k]."""
    e = [0] * len(order)
    for c, w in zip(order, weights):
        e[c] = w
    return e


def _invert_unitriangular(right: LaurentMatrix, sigma) -> LaurentMatrix:
    """Exact inverse of the unit-diagonal triangular factor."""
    n = right.size
    zero = LaurentPoly.zero()
    inv = [[zero] * n for _ in range(n)]
    for col in range(n):
        # solve right * x = e_col by substitution in sigma order
        x = [zero] * n
        for i in range(n):
            acc = LaurentPoly.one() if sigma[i] == col else zero
            for j in range(i):
                r = right.entries[sigma[i]][sigma[j]]
                if not (r.is_zero or x[sigma[j]].is_zero):
                    acc = acc - r * x[sigma[j]]
            x[sigma[i]] = acc
        for i in range(n):
            inv[i][col] = x[i]
    return LaurentMatrix(inv)


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------


def normalize(g: LaurentMatrix) -> LaurentMatrix:
    """Rescale by a power of t so the largest factorization weight is zero."""
    fac = factorize(g)
    lam0 = fac.weights[0]
    return g.shift(-lam0)


def pole_order_vector(v) -> int:
    """Pole order at t = 0 of a vector of Laurent polynomials.

    Positive means a pole, negative a zero of that order.
    """
    orders = [p.ord() for p in v if not p.is_zero]
    if not orders:
        raise ZeroLaurentError("pole order of the zero vector is undefined")
    return -min(orders)


def section_degree(g: LaurentMatrix, gamma) -> int:
    """Degree of the section associated with an arc gamma on the generic fiber.

    ``gamma`` is a vector of Laurent polynomials; a common power of t is
    cleared first so that gamma defines a point of projective space at
    t = 0.  The result is the pole order of g(t) * gamma(t).
    """
    if all(p.is_zero for p in gamma):
        raise ZeroLaurentError("gamma is identically zero")
    common = min(p.ord() for p in gamma if not p.is_zero)
    cleared = [p.shift(-common) for p in gamma]
    return pole_order_vector(g.apply(cleared))


# ---------------------------------------------------------------------------
# JSON interface:  {"size": n, "entries": [[[exp, num, den], ...], ...]}
# ---------------------------------------------------------------------------


def loop_from_json(obj) -> LaurentMatrix:
    size = int(obj["size"])
    if size < 1:
        raise ValueError(f"loop size must be positive, got {size}")
    flat = obj["entries"]
    if len(flat) != size * size:
        raise ValueError(
            f"expected {size * size} entries for a size-{size} loop, got {len(flat)}"
        )
    entries = [
        [LaurentPoly.from_triples(flat[i * size + j]) for j in range(size)]
        for i in range(size)
    ]
    # the factorization window runs over the whole loop's spread, so it is
    # bounded too, not only each entry's
    ends = [e for row in entries for p in row if p.coef for e in (p.ord(), p.deg())]
    _check_span(ends, "loop exponents")
    return LaurentMatrix(entries)


def loop_to_json(g: LaurentMatrix) -> dict:
    return {
        "size": g.size,
        "entries": [p.to_triples() for row in g.entries for p in row],
    }
