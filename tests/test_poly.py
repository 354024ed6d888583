"""Dense coefficient-list polynomials: zero is the empty list."""

from fractions import Fraction

from kstab import poly


def test_mul_by_zero_is_empty():
    assert poly.mul([], [1, 2, 3]) == []
    assert poly.mul([1, 2, 3], []) == []
    assert poly.mul([], []) == []


def test_mul_trims_and_multiplies():
    assert poly.mul([1, 1], [-1, 1]) == [-1, 0, 1]
    assert poly.mul([Fraction(1, 2), 0], [2]) == [1]
