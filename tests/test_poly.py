"""Dense coefficient-list polynomials: zero is the empty list."""

import random
from fractions import Fraction

import pytest

from kstab import laurent, poly
from kstab.laurent import LaurentPoly


def _random_list(rng, length):
    return poly.add([], [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(length)])


def test_mul_by_zero_is_empty():
    assert poly.mul([], [1, 2, 3]) == []
    assert poly.mul([1, 2, 3], []) == []
    assert poly.mul([], []) == []


def test_mul_trims_and_multiplies():
    assert poly.mul([1, 1], [-1, 1]) == [-1, 0, 1]
    assert poly.mul([Fraction(1, 2), 0], [2]) == [1]


def test_mul_matches_schoolbook():
    # zeros anywhere, the leading one included, and factors of either length order
    rng = random.Random(7)
    for _ in range(200):
        a, b = ([Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 6))] for _ in "ab")
        full = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                full[i + j] += x * y
        assert poly.mul(a, b) == poly.mul(b, a) == poly.add([], full)


@pytest.mark.parametrize("K", [1, 2, 5, 12])
def test_series_inverse(K):
    # the pivot inverse of the loop factorization, on integer numerators
    rng = random.Random(K)
    for _ in range(10):
        a = [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))] + _random_list(rng, rng.randint(0, 6))
        u = LaurentPoly(enumerate(a))
        assert laurent._inverse(u, K).mul(u, K) == LaurentPoly.one()


def test_laurent_with_negative_offset_round_trips_through_triples():
    p = LaurentPoly({-3: Fraction(2, 3), -1: -5, 2: Fraction(1, 7)})
    assert p.ord() == -3 and p.deg() == 2
    assert p.to_triples() == [[-3, 2, 3], [-1, -5, 1], [2, 1, 7]]
    assert LaurentPoly.from_triples(p.to_triples()) == p
    assert p.shift(3).ord() == 0 and p.shift(3).shift(-3) == p


def _sympy_monic_gcd(sp, a, b):
    x = sp.Symbol("x")
    g = sp.gcd(sp.Poly(a[::-1] or [0], x), sp.Poly(b[::-1] or [0], x))
    return [] if g.is_zero else [Fraction(int(c.p), int(c.q)) for c in g.monic().all_coeffs()[::-1]]


def test_gcd_matches_sympy():
    # seeded integer pairs with a common factor (non-monic, constant or
    # absent), either cofactor possibly zero or constant, and the zero pair
    sp = pytest.importorskip("sympy")
    rng = random.Random(11)

    def ints(length):
        return poly.add([], [rng.randint(-9, 9) for _ in range(length)])

    pairs = [([], []), ([0, 0], [0]), ([], [0, 3]), ([0, 0], [2]), ([6, 4], []), ([5], [0, 0, 7]),
             ([2, 4], [3, 6]), ([0, 0, 4], [0, 6])]
    for _ in range(300):
        common = ints(rng.randint(0, 4))
        pairs.append(tuple(poly.mul(common, ints(rng.randint(0, 6))) for _ in "ab"))
    for a, b in pairs:
        got = poly.gcd(a, b)
        assert got == _sympy_monic_gcd(sp, a, b), (a, b)
        assert got == poly.gcd(b, a) and all(isinstance(c, Fraction) for c in got)
        # the same lines with rational coefficients
        assert poly.gcd([Fraction(c, 6) for c in a], [Fraction(c, -35) for c in b]) == got


def test_divide_is_exact_over_the_integers():
    rng = random.Random(12)
    for _ in range(200):
        b = poly.add([], [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]) or [3]
        q = poly.add([], [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        assert poly.divide(poly.mul(q, b), b) == q
