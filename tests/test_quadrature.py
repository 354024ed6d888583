"""Quadrature rules: exactness, adaptivity, order independence."""

import math

import numpy as np
import pytest

from kstab.quadrature import (
    QuadratureError,
    _legendre,
    csum,
    disc_rule,
    panel_rule,
    radial_integral,
)


class TestDiscRule:
    def test_constant(self):
        s, w = disc_rule(8)
        assert csum(w) == pytest.approx(1.0, abs=1e-14)  # (1/pi) * area

    def test_radial_polynomial(self):
        # (1/pi) int |s|^2 dA over the unit disc = 1/2
        s, w = disc_rule(8)
        assert csum(w * np.abs(s) ** 2) == pytest.approx(0.5, abs=1e-13)

    def test_angular_harmonic_vanishes(self):
        s, w = disc_rule(12)
        assert abs(csum((w * (s**3)).real)) < 1e-14


    def test_built_once_per_order(self):
        assert all(a is b for a, b in zip(disc_rule(9), disc_rule(9)))

    def test_rules_are_read_only(self):
        for arr in (*disc_rule(8), *panel_rule(8, 4)):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestLegendreOracle:
    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        for n in range(1, 257):
            x, w = _legendre(n)
            xs, ws = special.roots_legendre(n)
            assert np.max(np.abs(x - xs)) <= 1e-15
            # relative to the total weight 2; the tiny end weights differ by up
            # to 3e-10 relative, as much as each rule differs from a 50-digit one
            assert np.max(np.abs(w - ws)) <= 1e-13 * 2.0
            assert np.max(np.abs(w - ws) / ws) <= 1e-9


class TestPanels:
    def test_panel_rule_integrates_poly(self):
        x, w = panel_rule(8, 4)
        assert csum(w * x**5) == pytest.approx(1 / 6, abs=1e-14)

    def test_adaptive_smooth(self):
        # the [0, inf) image of exp(-x) sin(7x) on [0, 1] under x = s/(1+s)
        def f(s):
            x = s / (1 + s)
            return np.exp(-x) * np.sin(7 * x) / (1 + s) ** 2

        val, err = radial_integral(f, tol=1e-12)
        exact = (7 - np.exp(-1) * (np.sin(7) * 1 + 7 * np.cos(7))) / 50
        assert val == pytest.approx(exact, abs=1e-11)
        assert err < 1e-11

    @pytest.mark.parametrize("breaks", [[2 / 3], lambda s: np.array([2 / 3])], ids=["list", "callable"])
    def test_breaks_at_a_kink(self, breaks):
        # |s - 2| e^-s, kinked at s = 2 (x = 2/3), integrates to 1 + 2/e^2; uniform
        # panels stall at 512 short of 1e-12, one and two per segment meet it
        calls = []

        def f(s):
            calls.append(len(s))
            return np.stack([np.abs(s - 2.0) * np.exp(-s), np.exp(-s)])

        val, err = radial_integral(lambda s: f(s)[0], tol=1e-12, breaks=breaks)
        assert val == pytest.approx(1 + 2 * np.exp(-2), abs=1e-15) and err <= 1e-12
        assert calls == [2 * 32, 2 * 64]  # one call of f per level
        assert np.allclose(radial_integral(f, tol=1e-12, breaks=breaks)[0], [1 + 2 * np.exp(-2), 1.0], rtol=1e-15)
        with pytest.raises(QuadratureError, match="stalled at 512 panels"):
            radial_integral(lambda s: f(s)[0], tol=1e-12)

    def test_adaptive_failure_reported(self):
        rng = np.random.default_rng(0)

        def noisy(x):
            return rng.normal(size=len(x))

        with pytest.raises(QuadratureError):
            radial_integral(noisy, tol=1e-12)

    def test_order_independence(self):
        # compensated accumulation: permuting node order changes nothing
        x, w = panel_rule(16, 8)
        f = np.sin(3 * x) / (1 + x)
        perm = np.random.default_rng(1).permutation(len(x))
        assert csum(w * f) == csum((w * f)[perm])

    @pytest.mark.parametrize("shape", [(2048,), (32, 65)])
    def test_csum_is_fsum_of_the_values(self, rng, shape):
        values = rng.normal(size=shape) * np.exp(rng.normal(scale=20.0, size=shape))
        assert csum(values) == math.fsum(values.ravel().tolist())

    def test_csum_cancelling(self):
        assert csum(np.array([1e16, 1.0, -1e16])) == 1.0
        assert csum([[1e16, 1.0], [-1e16, 0.0]]) == 1.0
