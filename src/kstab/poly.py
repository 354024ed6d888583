"""Dense univariate polynomials as ascending coefficient lists (p[i] is the
coefficient of x^i), exact over int or Fraction; zero is the empty list and
every result is trimmed of trailing zeros.  ``add``, ``mul``, ``deriv`` and
``divide`` keep integer lists integral, ``clear_denominators`` makes
rational lists integral, and ``gcd`` runs on integer lists and returns its
monic result over Fraction.  ``divide`` refuses a remainder; the Bareiss
determinant of ``kstab.laurent`` divides with it.

This is the one coefficient format of the exact code: ``kstab.laurent``
stores a Laurent polynomial as a power of t times such a list of integer
numerators over one denominator (its products run in ``LaurentPoly.dot``),
and ``kstab.weights`` and ``kstab.bergman`` build their exact polynomials
with ``mul`` and ``add``.  ``evaluate`` is Horner's rule and also takes float
coefficients with a numpy array argument.  ``json_int``, ``json_number`` and
``json_list`` are how the JSON readers take an integer, a number and a list.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction

__all__ = ["add", "mul", "deriv", "clear_denominators", "divide", "gcd", "evaluate",
           "json_int", "json_list", "json_number"]


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


def divide(a, b):
    """a / b for integer lists where b divides a over the integers (as a
    primitive b dividing a over the rationals does, by Gauss's lemma); a
    nonzero remainder raises ArithmeticError."""
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(quo))):
        c = quo[i] = rem[i + len(b) - 1] // b[-1]
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    if any(rem):
        raise ArithmeticError("polynomial division left a remainder")
    return _trim(quo)


def clear_denominators(*lists):
    """The int or Fraction lists times the least common denominator of all
    their coefficients, as integer lists."""
    m = math.lcm(*(c.denominator for p in lists for c in p))
    return [[c.numerator * (m // c.denominator) for c in p] for p in lists]


def _primitive(a):
    (a,) = clear_denominators(a)
    g = math.gcd(*a) or 1
    return _trim([c // g for c in a])


def gcd(a, b):
    """Monic greatest common divisor over the rationals, by the primitive
    remainder sequence on integer lists: each step scales a by the least m
    that lets b's top term divide a's and takes that multiple of b off, and
    each remainder is divided by its content."""
    a, b = _primitive(a), _primitive(b)
    while b:
        while len(a) >= len(b):
            m = b[-1] // math.gcd(a[-1], b[-1])
            c = a[-1] * m // b[-1]
            a = _trim([m * x - c * y for x, y in zip(a, [0] * (len(a) - len(b)) + b)])
        a, b = b, _primitive(a)
    return [Fraction(c, a[-1]) for c in a]


def json_int(value, field):
    """``value`` if it is a JSON integer; a bool, string or float (2.0 too) is refused."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, got {value!r:.40}")
    return value


def json_list(value, field):
    """``value`` if it is a JSON list."""
    if type(value) is not list:
        raise ValueError(f"{field} must be a JSON list, got {value!r:.40}")
    return value


def json_number(value, field, exact=False):
    """``value`` if it is a finite JSON int or float, never a bool; with
    ``exact``, also a string such as "p/q", read as an exact Fraction."""
    if exact and type(value) is str:
        with contextlib.suppress(ValueError, ZeroDivisionError):  # "1/0" too
            return Fraction(value)
    elif type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return value
    what = "a finite JSON number" + ' or a "p/q" string' * exact
    raise ValueError(f"{field} must be {what}, got {value!r:.40}")


def evaluate(a, x):
    acc = 0 * x
    for c in reversed(a):
        acc = acc * x + c
    return acc
