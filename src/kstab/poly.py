"""Dense univariate polynomials as ascending coefficient lists (p[i] is the
coefficient of x^i), exact over int or Fraction; zero is the empty list and
every result is trimmed of trailing zeros.  ``add``, ``mul`` and ``deriv``
keep integer lists integral; ``quorem`` and ``gcd`` work over Fraction.

This is the one coefficient format of the exact code: ``kstab.laurent``
stores a Laurent polynomial as a power of t times such a list of integer
numerators over one denominator (its products run in ``LaurentPoly.dot``),
and ``kstab.weights`` and ``kstab.bergman`` build their exact polynomials
with ``mul`` and ``add``.
``evaluate`` is Horner's rule and also takes float coefficients with a
numpy array argument.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["add", "mul", "deriv", "quorem", "gcd", "evaluate"]


def _trim(p):
    """Drop the trailing zeros of the list p, in place."""
    while p and p[-1] == 0:
        p.pop()
    return p


def add(a, b, c=1):
    """a + c * b."""
    if c != 1:
        b = [c * y for y in b]
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        if y:
            out[i] += y
    return _trim(out)


def mul(a, b):
    """a * b.

    The first coefficient of the shorter factor times the longer factor
    starts the product, so a constant factor costs one multiplication per
    term and no addition to zero.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return []
    out = [b[0] * x for x in a] + [0] * (len(b) - 1)
    for j, y in enumerate(b[1:], 1):
        if y:
            for i, x in enumerate(a, j):
                if x:
                    out[i] += x * y
    return _trim(out)


def deriv(a):
    return [i * c for i, c in enumerate(a)][1:]


def quorem(a, b):
    """Quotient and remainder of a by a nonzero trimmed b."""
    rem = _trim([Fraction(c) for c in a])
    quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i in reversed(range(len(quo))):
        r = rem[i + len(b) - 1]
        if r:
            c = quo[i] = r / b[-1]
            for j, y in terms:
                rem[i + j] -= c * y
    return _trim(quo), _trim(rem[: len(b) - 1])


def gcd(a, b):
    """Monic greatest common divisor over the rationals (Euclid)."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, quorem(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def evaluate(a, x):
    acc = 0 * x
    for c in reversed(a):
        acc = acc * x + c
    return acc
