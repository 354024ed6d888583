"""Dense univariate polynomials as ascending coefficient lists (p[i] is the
coefficient of x^i), exact over Fraction; zero is the empty list.
``evaluate`` is Horner's rule and also takes float coefficients with a
numpy array argument.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

__all__ = ["add", "mul", "deriv", "quorem", "gcd", "evaluate"]


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def add(a, b, c=1):
    """a + c * b."""
    return _trim(x + c * y for x, y in zip_longest(a, b, fillvalue=0))


def mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return _trim(out)


def deriv(a):
    return [i * c for i, c in enumerate(a)][1:]


def quorem(a, b):
    """Quotient and remainder of a by a nonzero trimmed b."""
    rem = [Fraction(c) for c in _trim(a)]
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
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, quorem(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def evaluate(a, x):
    acc = 0 * x
    for c in reversed(a):
        acc = acc * x + c
    return acc
