"""Quadrature rules: exactness, adaptivity, order independence."""

import numpy as np
import pytest

from kstab.quadrature import (
    QuadratureError,
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


    def test_rules_are_read_only(self):
        for arr in (*disc_rule(8), *panel_rule(8, 4)):
            with pytest.raises(ValueError):
                arr[0] = 0


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
