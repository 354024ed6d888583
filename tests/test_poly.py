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
