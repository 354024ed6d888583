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

A :class:`LaurentPoly` is an integer offset times a trimmed list of integer
numerators over one positive denominator, in lowest terms (the layout of
FLINT's ``fmpq_poly``), the one exact polynomial format of the package:
a product, or a sum of products (``dot``), optionally truncated below
t^K, is accumulated in one integer list over one common denominator and
reduced once, and ``Fraction`` appears only where coefficients are read
out.  Determinants are Bareiss elimination over Z[t, 1/t], checked
at one point modulo a prime; the factorization reads its window K off the
loop's local Smith exponents modulo that prime, runs its echelon on entries
truncated modulo t^K, forms no product with a known zero (the pivot column,
zero entries of the pivot row, of R and of R^-1), and checks its result
exactly by (g R^-1) R = g; the Chow order (``kstab.chow``) is read off that
verified normal form.  Each Bareiss division is ``poly.divide``, which
refuses a remainder.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from kstab.poly import divide, json_int, json_list

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


class DegenerateLoopError(ValueError):
    """Raised when a loop has identically zero determinant."""


class ZeroLaurentError(ValueError):
    """Raised when an order/degree is requested of the zero element."""


class FactorizationError(ArithmeticError):
    """Raised when a computed factorization or determinant fails its exact
    check (an internal invariant; the CLI exits 3)."""


# Largest exponent span (highest minus lowest exponent with a nonzero
# coefficient) of a polynomial read from triples: coefficients are stored
# densely, so the span, not the number of terms, sets time and memory.
MAX_SPAN = 2 ** 20


def _check_span(exps, what="exponents"):
    if exps and max(exps) - min(exps) > MAX_SPAN:
        raise ValueError(f"{what} {min(exps)}..{max(exps)} span more than 2^20 = {MAX_SPAN}")


class LaurentPoly:
    """Finite Laurent polynomial t^low * (coef[0] + coef[1] t + ...) / den over Q.

    ``low`` is an integer offset, ``coef`` a list of integer numerators whose
    first and last entries are nonzero, and ``den`` a positive integer that
    shares no factor with all of ``coef``; zero is low = 0, coef = [],
    den = 1.  The form is canonical, so equal values have equal fields.
    Values are immutable, so shifted copies share their lists.
    """

    __slots__ = ("low", "coef", "den")

    def __init__(self, coeffs=None):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs or ()
        items = [(int(e), v) for e, v in ((e, v if type(v) is int else Fraction(v)) for e, v in items) if v]
        out = _gathered([(e, v.numerator, v.denominator) for e, v in items])
        self.low, self.coef, self.den = out.low, out.coef, out.den

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _new(0, [1], 1)

    @classmethod
    def t_power(cls, e: int, c=1) -> "LaurentPoly":
        c = c if type(c) is int else Fraction(c)
        return _laurent(int(e), [c.numerator], c.denominator)

    @classmethod
    def from_triples(cls, triples) -> "LaurentPoly":
        """Build from ``[[exp, num, den], ...]`` triples whose nonzero terms
        span at most ``MAX_SPAN`` exponents."""
        if not all(type(x) is int for t in triples for x in t):  # json_int names the field
            for e, n, d in triples:
                json_int(e, "exponent"), json_int(n, "numerator"), json_int(d, "denominator")
        if any(d == 0 for _, _, d in triples):
            raise ValueError("coefficient with denominator 0")
        _check_span([e for e, n, _ in triples if n])
        return _gathered([t for t in triples if t[1]])

    # -- structure ----------------------------------------------------
    @property
    def coeffs(self) -> dict:
        return {self.low + i: Fraction(v, self.den) for i, v in enumerate(self.coef) if v}

    def coefficient(self, e: int) -> Fraction:
        i = int(e) - self.low
        return Fraction(self.coef[i], self.den) if 0 <= i < len(self.coef) else _ZERO

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
    @staticmethod
    def dot(pairs, K=None) -> "LaurentPoly":
        """Sum of the products a * b over the pairs, or only its terms below
        t^K when K is given, accumulated in one integer list over the least
        common multiple of the products' denominators and reduced once."""
        terms, low, top, den = [], math.inf, -math.inf, 1
        for a, b in pairs:
            x, y, e = a.coef, b.coef, a.low + b.low
            if not (x and y) or K is not None and e >= K:
                continue
            if len(x) < len(y):
                x, y = y, x
            d, t = a.den * b.den, e + len(x) + len(y) - 1
            low, top = e if e < low else low, t if t > top else top
            if den % d:
                den = den * d // math.gcd(den, d)
            terms.append((e, x, y, d))
        if not terms:
            return _new(0, [], 1)
        top = top if K is None else min(top, K)
        out = [0] * (top - low)
        for e, x, y, d in terms:
            f, n = den // d, top - e
            # x[i] y[j] lands on out[e - low + i + j], for i + j < n
            for j, c in enumerate(y[:n], e - low):
                if c:
                    c *= f
                    for i, w in enumerate(x[: n + e - low - j], j):
                        if w:
                            out[i] += c * w
        return _laurent(low, out, den)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        one = LaurentPoly.one()
        return LaurentPoly.dot(((self, one), (other, one)))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return _new(self.low, [-v for v in self.coef], self.den)

    def mul(self, other: "LaurentPoly", K=None) -> "LaurentPoly":
        """Product, or only its terms below t^K when K is given."""
        return LaurentPoly.dot(((self, other),), K)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self.mul(other)

    def truncate(self, K: int) -> "LaurentPoly":
        """The terms below t^K."""
        return _laurent(self.low, self.coef[: max(K - self.low, 0)], self.den)

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by t^e."""
        return _new(self.low + e if self.coef else 0, self.coef, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.low, self.den, self.coef) == (other.low, other.den, other.coef)

    def to_triples(self):
        return [[e, v.numerator, v.denominator] for e, v in self.coeffs.items()]

    def __repr__(self) -> str:
        terms = (f"{v}" if e == 0 else f"{v}*t" if e == 1 else f"{v}*t^{e}" for e, v in self.coeffs.items())
        return " + ".join(terms) or "0"


def _new(low: int, coef, den: int) -> LaurentPoly:
    out = LaurentPoly.__new__(LaurentPoly)
    out.low, out.coef, out.den = low, coef, den
    return out


def _gathered(terms) -> LaurentPoly:
    """Sum of integer (exponent, numerator, denominator != 0) terms, in canonical form."""
    den = math.lcm(*(d for _, _, d in terms))
    low = min((e for e, _, _ in terms), default=0)
    coef = [0] * (max((e for e, _, _ in terms), default=low - 1) - low + 1)
    for e, n, d in terms:
        coef[e - low] += n * (den // d)
    return _laurent(low, coef, den)


def _laurent(low: int, coef, den: int = 1) -> LaurentPoly:
    """t^low * coef / den in canonical form, for integers coef and den > 0:
    the zeros at both ends of coef removed and the common factor of den and
    coef divided out."""
    if not (coef and coef[0] and coef[-1]):
        start = next((i for i, v in enumerate(coef) if v), len(coef))
        end = len(coef)
        while end > start and not coef[end - 1]:
            end -= 1
        low, coef = (low + start, coef[start:end]) if start < end else (0, [])
    if den != 1:
        g = math.gcd(den, *coef)
        if g != 1:
            coef, den = [v // g for v in coef], den // g
    return _new(low, coef, den)


class LaurentMatrix:
    """Square matrix of :class:`LaurentPoly` entries, immutable like them:
    ``entries`` is never changed after construction, so ``factorize`` keeps
    its verified result on the matrix (``_factorization``)."""

    __slots__ = ("size", "entries", "_factorization")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.size = len(self.entries)
        self._factorization = None
        for row in self.entries:
            if len(row) != self.size:
                raise ValueError("loop matrix must be square")

    @classmethod
    def identity(cls, size: int) -> "LaurentMatrix":
        return cls.exponent_diagonal([0] * size)

    @classmethod
    def exponent_diagonal(cls, exps) -> "LaurentMatrix":
        """diag(t^{e_0}, ..., t^{e_N})."""
        zero = LaurentPoly.zero()
        return cls([[LaurentPoly.t_power(e) if i == j else zero for j in range(len(exps))] for i, e in enumerate(exps)])

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
        return [LaurentPoly.dot(zip(row, vector)) for row in self.entries]

    def det(self) -> LaurentPoly:
        """Exact determinant (``_bareiss``), checked at one point modulo a
        prime: the rows cleared of denominators give prod(f) det at t0."""
        try:
            det = _bareiss(self.entries)
        except ArithmeticError:
            raise FactorizationError("determinant: a Bareiss division left a remainder") from None
        (vals, mults), ([[value]], [den]) = _values_at_t0(self.entries), _values_at_t0([[det]])
        num, scale = _det_mod(vals)
        if (num - scale * value * (math.prod(mults) // den)) % _PRIME:
            raise FactorizationError("determinant failed its check modulo 2^61 - 1")
        return det

    def value_at_zero(self):
        """Matrix of constant coefficients; requires no negative exponents."""
        if not self.is_holomorphic():
            raise ValueError("entry has a pole at t=0")
        return [[p.coefficient(0) for p in row] for row in self.entries]

    def is_holomorphic(self) -> bool:
        return all(p.is_zero or p.ord() >= 0 for row in self.entries for p in row)

    def __repr__(self) -> str:
        rows = [", ".join(repr(p) for p in row) for row in self.entries]
        return "LaurentMatrix([\n  " + "\n  ".join(rows) + "\n])"


def _bareiss(rows) -> LaurentPoly:
    """Determinant by fraction-free (Bareiss) elimination over Z[t, 1/t].

    Each row is first multiplied by the least common multiple of its
    denominators; at step k every entry becomes
    (a_kk a_ij - a_ik a_kj) / a_(k-1)(k-1), a division that is exact, and the
    product of the row multipliers is divided back out at the end.
    """
    n, a, scale = len(rows), [], 1
    for row in rows:
        f = math.lcm(*(p.den for p in row))
        a.append([_new(p.low, [f // p.den * v for v in p.coef], 1) for p in row])
        scale *= f
    sign, prev = 1, None
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if a[r][k].coef), None)
        if piv is None:
            return LaurentPoly()
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk, row_k = a[k][k], a[k]
        for row in a[k + 1 :]:
            neg_aik = -row[k]
            for j in range(k + 1, n):
                num = LaurentPoly.dot(((akk, row[j]), (neg_aik, row_k[j])))
                row[j] = _laurent(num.low - prev.low, divide(num.coef, prev.coef)) if k else num  # step 0 divides by 1
        prev = akk
    return _laurent(a[-1][-1].low, [sign * v for v in a[-1][-1].coef], scale) if n else LaurentPoly.one()


# Exact results are checked at a seeded point t0 modulo the Mersenne prime
# 2^61 - 1 (Schwartz-Zippel).  Rows are cleared of denominators before they
# are evaluated, so no denominator is inverted, and t0 is a unit, so every
# value exists.
_PRIME = 2 ** 61 - 1
_T0 = random.Random(_PRIME).randrange(2, _PRIME)
_T0_INV = pow(_T0, -1, _PRIME)


def _values_at_t0(rows):
    """The rows, each multiplied by the least common multiple of its
    denominators, at t0 modulo the prime; and the multipliers."""
    rows = [list(row) for row in rows]
    pw = [1]
    for _ in range(max(len(p.coef) for row in rows for p in row) - 1):
        pw.append(pw[-1] * _T0 % _PRIME)
    vals, mults = [], []
    for row in rows:
        f = math.lcm(*(p.den for p in row))
        t_low = (pow(_T0 if p.low >= 0 else _T0_INV, abs(p.low), _PRIME) for p in row)
        vals.append([sum(map(operator.mul, p.coef, pw)) * (f // p.den) * t % _PRIME for p, t in zip(row, t_low)])
        mults.append(f)
    return vals, mults


def _det_mod(m):
    """(num, scale) with num / scale the determinant modulo the prime, by
    fraction-free Gaussian elimination: each row update scales by a pivot."""
    m, n, num, scale = [list(row) for row in m], len(m), 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0, 1
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            num = -num
        pk, top = m[k][k], m[k][k + 1 :]
        num = num * pk % _PRIME
        for row in m[k + 1 :]:
            f = row[k]
            if f:
                row[k + 1 :] = [(pk * x - f * y) % _PRIME for x, y in zip(row[k + 1 :], top)]
                scale = scale * pk % _PRIME
    return num, scale


def _is_singular(rows) -> bool:
    """Whether det rows is exactly 0: a nonzero value at t0 modulo the prime
    proves it is not, and only a zero value runs the exact ``det``."""
    return not _det_mod(_values_at_t0(rows)[0])[0] and LaurentMatrix(rows).det().is_zero


def _smith_exponents(rows):
    """Local Smith exponents at t = 0 of n polynomial rows modulo the prime,
    nonincreasing, read as ``factorize`` says; None after 2n + 2 steps, as
    when det = 0 modulo the prime.  A row is a dict {(column, exponent):
    coefficient}, cleared of denominators, so its cost follows its terms."""
    pivots, steps = [], []
    todo = [{(c, p.low + i): f // p.den * v % _PRIME for c, p in enumerate(row) for i, v in enumerate(p.coef)}
            for row in rows for f in [math.lcm(*(p.den for p in row))]]
    while todo:
        if len(steps) == 2 * len(rows) + 2:
            return None
        vanish = []
        for row in todo:
            for c, inv, prow in pivots:
                x = -row.get((c, 0), 0) * inv % _PRIME
                if x:
                    row.update({key: (row.get(key, 0) + x * v) % _PRIME for key, v in prow.items()})
            c = next((c for (c, e), v in row.items() if v and not e), None)
            if c is None:
                vanish.append(row)
            else:
                pivots.append((c, pow(row[c, 0], -1, _PRIME), row))
        k = min((e for row in vanish for (_, e), v in row.items() if v), default=0)
        steps.append((len(vanish), k))
        todo = [{(c, e - k): v for (c, e), v in row.items() if v} for row in vanish]
    return [sum(k for r, k in steps if r > i) for i in range(len(rows))]


def multiply(a: LaurentMatrix, b: LaurentMatrix) -> LaurentMatrix:
    """Exact product of two loops of equal size."""
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    cols = [[(k, p) for k, p in enumerate(col) if p.coef] for col in zip(*b.entries)]
    return LaurentMatrix([[LaurentPoly.dot((row[k], p) for k, p in col) for col in cols] for row in a.entries])


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
    rinv: LaurentMatrix = field(repr=False, compare=False)

    def exponent_vector(self):
        """Exponents placed on the original basis: e[order[k]] = weights[k]."""
        return _on_basis(self.order, self.weights)

    def reassemble(self) -> LaurentMatrix:
        return multiply(self.left.scale_columns(self.exponent_vector()), self.right)


# ---------------------------------------------------------------------------
# factorization: valuation echelon on entries truncated modulo t^K
# ---------------------------------------------------------------------------


def _inverse(u: LaurentPoly, P: int) -> LaurentPoly:
    """Inverse modulo t^P of a unit c/d of the power series ring, on integers:
    d/c = d (b_0 + b_1 t + ...) / c0^P with b_0 = c0^(P-1) and
    b_m = -(c_1 b_(m-1) + ... + c_m b_0) / c0, a division that is exact."""
    c, sign = u.coef, -1 if u.coef[0] < 0 and P % 2 else 1
    b = [c[0] ** (P - 1)]
    for m in range(1, P):
        b.append(-sum(c[i] * b[m - i] for i in range(1, min(m, len(c) - 1) + 1) if c[i]) // c[0])
    return _laurent(0, [sign * u.den * x for x in b], sign * c[0] ** P)


def _echelon(rows, size, K):
    """Reduce spanning rows to the triangular normal-form basis.

    Returns (sigma, wts, basis) with wts[0] >= ... >= wts[size-1]; basis[k]
    is a row vector supported on coordinates sigma[0..k], whose sigma[k]
    entry is exactly t^{wts[k]} and whose sigma[j] entry (j < k) has
    exponents confined to [wts[k], wts[j]).  Returns None when the window
    t^K holds no pivot.
    """
    active, one, zero = list(range(size)), LaurentPoly.one(), LaurentPoly.zero()
    sigma, wts, basis = [0] * size, [0] * size, [None] * size

    for pos in range(size - 1, -1, -1):
        keys = [(p.low, -c, i) for i in active for c, p in enumerate(rows[i]) if p.coef]  # (ord, -coord, row)
        if not keys:
            return None
        m, negc, istar = min(keys)
        cstar = -negc

        # normalize the pivot row so its cstar entry becomes exactly t^m; the
        # unit's inverse is needed only below t^(K - least order of the rest)
        piv_row = rows[istar]
        rest = [p.ord() for c, p in enumerate(piv_row) if c != cstar and not p.is_zero]
        if rest:
            uinv = _inverse(piv_row[cstar], K - min(rest))
            piv_row = rows[istar] = [uinv.mul(p, K) for p in piv_row]
        piv_row[cstar] = LaurentPoly.t_power(m)

        # each update zeroes column cstar exactly and changes only the pivot row's nonzero columns
        cols = [c for c, q in enumerate(piv_row) if q.coef and c != cstar]
        for i in active:
            row, ent = rows[i], rows[i][cstar]
            if i == istar or ent.is_zero:
                continue
            neg_mu = _new(ent.low - m, [-v for v in ent.coef], ent.den)  # ord(ent) >= m: exact division by t^m
            for c in cols:
                row[c] = LaurentPoly.dot(((row[c], one), (neg_mu, piv_row[c])), K)
            row[cstar] = zero

        sigma[pos] = cstar
        wts[pos] = m
        basis[pos] = piv_row
        active.remove(istar)

    # second pass: reduce entries below each pivot exponent window; neg_q is beta's
    # terms at and above t^wts[j], negated and shifted down
    support = []
    for row in basis:
        for j in range(len(support) - 1, -1, -1):
            beta, w = row[sigma[j]], wts[j]
            s = max(w - beta.low, 0)
            if s < len(beta.coef):
                neg_q = _laurent(beta.low + s - w, [-v for v in beta.coef[s:]], beta.den)
                for c in support[j]:
                    row[c] = LaurentPoly.dot(((row[c], one), (neg_q, basis[j][c])), K)
        support.append([c for c, p in enumerate(row) if p.coef])
    return sigma, wts, basis


def factorize(g: LaurentMatrix) -> LoopFactorization:
    """Factor a loop into the normal form left * t^A * right.

    Raises :class:`DegenerateLoopError` when det g = 0, and
    :class:`FactorizationError` if the result fails its exact check.  The
    result is deterministic: weights are sorted nonincreasing and ties
    between equal weights keep the original basis order.

    The weights of the shifted loop t^(-nu) g are >= 0 and sum to its
    ord det <= deg det <= the sum over its rows of their largest entry
    degree, and that sum plus one caps the window.  ``_smith_exponents``
    reads them modulo 2^61 - 1 (Gohberg, Lancaster and Rodman): each step
    divides the r rows that vanish at t = 0, after elimination on the
    constant terms, by t^k, k their least order, and the i-th largest weight
    is the sum of the k of the steps with r > i.  Weights read there prove
    g nonsingular; else a nonzero det g at t0 modulo the prime does, and
    only a zero there runs the exact ``det``.  The echelon runs once on the
    entries modulo t^K, K the largest read weight plus one (else 1), and
    doubles K up to the cap while it misses a pivot.  Each pivot has the
    least order among the active entries, so every elimination is exact
    modulo t^K and any window that finds the pivots gives the exact answer.
    The check proves left(0) invertible, so ord det g = sum(weights).  The
    verified result is kept on ``g``; a failure is not kept.
    """
    if g._factorization is not None:
        return g._factorization
    nu = min((p.low for row in g.entries for p in row if p.coef), default=0)
    shifted = g.shift(-nu)  # polynomial entries
    exps = _smith_exponents(shifted.entries)
    if exps is None and _is_singular(g.entries):
        raise DegenerateLoopError("degenerate loop: determinant vanishes identically")
    cap = sum(max(p.deg() for p in row if p.coef) for row in shifted.entries) + 1
    K = exps[0] + 1 if exps else 1  # <= cap: exps sum to ord det <= deg det modulo p
    while (found := _echelon([[p.truncate(K) for p in row] for row in shifted.entries], g.size, K)) is None:
        if K == cap:
            raise FactorizationError(f"no pivot within the window t^{cap}")
        K = min(2 * K, cap)
    fac = _assemble(g, *found, nu)
    if fac is None:
        raise FactorizationError("loop factorization failed its exact check")
    g._factorization = fac
    return fac


def _assemble(g, sigma, wts, basis, nu):
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
            if p.ord() < wts[k] or p.deg() >= wts[j]:  # R's entry: deg < w_j - w_k
                return None
            right_entries[sigma[k]][sigma[j]] = p.shift(-wts[k])
        # positions sigma[k], sigma[j] with j > k must vanish
        for j in range(k + 1, n):
            if not basis[k][sigma[j]].is_zero:
                return None
    right = LaurentMatrix(right_entries)
    rinv = _invert_unitriangular(right, sigma)
    x = multiply(g, rinv)  # = left * t^A, so x * right is fac.reassemble()
    left = x.scale_columns([-e for e in _on_basis(sigma, weights)])

    # left is holomorphic and left(0) invertible, so, as det right = 1,
    # ord det g = sum(weights)
    if not left.is_holomorphic() or _is_singular([[p.truncate(1) for p in row] for row in left.entries]):
        return None
    fac = LoopFactorization(left=left, weights=weights, right=right, order=tuple(sigma), rinv=rinv)
    return fac if multiply(x, right) == g else None


def _on_basis(order, weights):
    """e[order[k]] = weights[k]."""
    e = [0] * len(order)
    for c, w in zip(order, weights):
        e[c] = w
    return e


def _invert_unitriangular(right: LaurentMatrix, sigma) -> LaurentMatrix:
    """Exact inverse of the unit-diagonal triangular factor: column by
    column, right x = e_col solved by substitution in sigma order."""
    cols, one = [], LaurentPoly.one()
    # the nonzero entries below the diagonal in sigma order, negated once
    neg = [[(c, -right.entries[s][c]) for c in sigma[:i] if right.entries[s][c].coef] for i, s in enumerate(sigma)]
    for col in range(right.size):
        x = [LaurentPoly.zero()] * right.size
        for i, s in enumerate(sigma):
            pairs = [(p, x[c]) for c, p in neg[i] if x[c].coef]
            x[s] = LaurentPoly.dot(pairs + [(one, one)] * (s == col))
        cols.append(x)
    return LaurentMatrix(zip(*cols))


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
    size = json_int(obj["size"], "size")
    if size < 1:
        raise ValueError(f"loop size must be positive, got {size}")
    flat = json_list(obj["entries"], "entries")
    if len(flat) != size * size:
        raise ValueError(
            f"expected {size * size} entries for a size-{size} loop, got {len(flat)}"
        )
    for k, triples in enumerate(flat):
        if any(not isinstance(t, list) or len(t) != 3 for t in triples):
            raise ValueError(f"loop entry {divmod(k, size)}: a term is [exp, num, den], got {triples!r:.40}")
    polys = [LaurentPoly.from_triples(triples) for triples in flat]
    entries = [polys[i * size:(i + 1) * size] for i in range(size)]
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
