"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test calls the shared registry in kstab.acceptance so the CLI `verify`
command and this module always agree.  Criterion 11 asserts the stated
decay window faithfully and is a strict expected failure: for a metric
with non-constant scalar curvature the discrepancy form has a first-order
density fluctuation and its total variation decays like 1/k, so the
k^-2 log k window cannot be met by any nontrivial radial test metric
(constant-curvature ones have identically zero discrepancy).
"""

import random

import pytest

from kstab import acceptance as acc

_BY_NUMBER = {num: (name, fn, budget, xfail) for num, name, fn, budget, xfail in acc.CRITERIA}


def _run(number):
    name, fn, budget, _ = _BY_NUMBER[number]
    import time

    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    assert elapsed <= budget, f"criterion {number} took {elapsed:.1f}s > {budget}s"
    return out["detail"]


def test_01_factorization_roundtrip():
    _run(1)


def test_02_section_degree_bounds():
    _run(2)


def test_03_gap_scaling():
    _run(3)


def test_04_futaki_calibration():
    _run(4)


def test_05_leading_coefficient_sign():
    _run(5)


def test_06_equivariant_equality():
    _run(6)


def test_07_pairing_trace_norm_bound():
    _run(7)


def test_08_chow_inequality_suite():
    _run(8)


def test_09_bergman_normalization(gram_quadratures):
    _run(9)
    # one Gram quadrature per metric (round, perturbed) and level
    assert sorted(gram_quadratures) == [8, 8, 16, 16, 32, 32, 64, 64]


def test_10_expansion_coefficient():
    _run(10)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "discrepancy total variation decays like 1/k for non-constant "
        "scalar curvature; the k^-2 log k window applies only to "
        "constant-curvature metrics, whose discrepancy vanishes identically"
    ),
)
def test_11_theta_decay_window():
    _run(11)


def test_12_moment_cross_check(gram_quadratures):
    _run(12)
    # the image cycle and the k + 1 pairings of a level share one quadrature
    assert sorted(gram_quadratures) == [2, 3, 4]


def test_13_balanced_iteration():
    _run(13)


@pytest.mark.parametrize("size", [0, 1])
def test_admissible_loop_needs_two_exponents(size):
    # t^A needs two distinct exponents, which fewer than two draws never give
    with pytest.raises(ValueError, match=f"needs size >= 2, got {size}"):
        acc.random_admissible_loop(random.Random(0), size)
