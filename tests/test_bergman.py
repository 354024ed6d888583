"""Density-of-states tests: Gram norms, normalization, expansion, decay."""

import math

import numpy as np
import pytest

from kstab.bergman import (
    RadialMetric,
    default_grid,
    expansion_fit,
    fs_pullback_form,
    gram,
    image_cycle,
    metric_from_json,
    moment_from_bergman,
    rho,
    scalar_curvature,
    theta_total_variation,
)
from kstab.quadrature import radial_integral


@pytest.fixture(scope="module")
def round_metric():
    return RadialMetric(0.0)


@pytest.fixture(scope="module")
def perturbed():
    return RadialMetric(0.1)


class TestRadialMetric:
    def test_area_is_one(self, round_metric, perturbed):
        assert round_metric.area() == pytest.approx(1.0, abs=1e-12)
        assert perturbed.area() == pytest.approx(1.0, abs=1e-10)

    def test_positivity_certificate(self, perturbed):
        assert perturbed.positivity_certificate > 0.5

    def test_nonmetric_rejected(self):
        with pytest.raises(ValueError):
            RadialMetric(5.0)  # bump large enough to break positivity

    def test_json_parsing(self, perturbed):
        m = metric_from_json(
            {"epsilon": 0.1, "bump": {"type": "rational", "num": [0, 1], "den": [1, 2, 1]}}
        )
        s = default_grid(20)
        assert np.allclose(m.density(s), perturbed.density(s))

    def test_default_bump_symmetric(self, perturbed):
        # psi(s) = psi(1/s) for the shipped bump
        s = np.array([0.3, 0.7, 2.5])
        u = perturbed.u(s) - np.log1p(s)
        v = perturbed.u(1 / s) - np.log1p(1 / s)
        assert np.allclose(u, v)


class TestScalarCurvature:
    def test_round_constant(self, round_metric):
        s = default_grid(50)
        assert np.allclose(scalar_curvature(round_metric, s), 2.0)

    @pytest.mark.parametrize(
        "epsilon, bump",
        [
            (0.0, None),
            (0.1, None),
            (0.04, ([0, 1, 3], [1, 3, 3, 1])),
            (0.15, ([0, 2, 1], [1, 3, 3, 1])),
        ],
        ids=["round", "shipped-bump", "bench-bump-a1-b3", "bench-bump-a2-b1"],
    )
    def test_matches_sympy_oracle(self, epsilon, bump):
        # w = (s u')' and S = -(s (log w)')' / w from sympy diff/cancel,
        # evaluated exactly at each point, against the rational-arithmetic
        # metric over eighteen decades of s
        sp = pytest.importorskip("sympy")
        from fractions import Fraction

        s = sp.Symbol("s", positive=True)
        num, den = bump if bump is not None else ([0, 1], [1, 2, 1])
        psi = sp.Poly(num[::-1], s).as_expr() / sp.Poly(den[::-1], s).as_expr()
        eps = sp.Rational(Fraction(epsilon).limit_denominator(10**9))
        u = sp.log(1 + s) + eps * psi
        w = sp.cancel(sp.diff(s * sp.diff(u, s), s))
        scal = sp.cancel(-sp.diff(s * sp.cancel(sp.diff(w, s) / w), s) / w)
        metric = RadialMetric(epsilon, bump=bump)
        pts = np.logspace(-9, 9, 37)
        for expr, got in ((w, metric.density(pts)), (scal, scalar_curvature(metric, pts))):
            want = np.array([float(expr.subs(s, sp.Rational(x))) for x in pts])
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12

    def test_linearization_in_epsilon(self):
        eps = 1e-4
        s = default_grid(30, 0.1, 0.9)
        fd = (scalar_curvature(RadialMetric(eps), s) - 2.0) / eps
        fd2 = (scalar_curvature(RadialMetric(2 * eps), s) - 2.0) / (2 * eps)
        # first-order coefficient agrees to 1% of its scale between step sizes
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(fd - fd2)) < 0.01 * scale


class TestGram:
    def test_round_beta_ratios(self, round_metric):
        for k in (4, 9, 16):
            g = gram(round_metric, k)
            ratios = g / g[0]
            exact = np.array([1.0 / math.comb(k, j) for j in range(k + 1)])
            assert np.max(np.abs(ratios - exact) / exact) < 1e-10

    def test_symmetry_under_inversion(self, perturbed):
        # bump invariant under s <-> 1/s makes j <-> k - j symmetric
        for k in (5, 12):
            g = gram(perturbed, k)
            assert np.max(np.abs(g - g[::-1]) / g) < 1e-10

    def test_positivity(self, perturbed):
        for k in (1, 8, 64):
            assert np.all(gram(perturbed, k) > 0)

    def test_k_zero_rejected(self, round_metric):
        with pytest.raises(ValueError):
            gram(round_metric, 0)


class TestRho:
    def test_round_constant(self, round_metric):
        grid = default_grid(100)
        for k in (8, 32):
            r = rho(round_metric, k, grid)
            assert r.max() - r.min() < 1e-9
            assert np.allclose(r, (k + 1) / k)

    def test_normalization_identity(self, round_metric, perturbed):
        for metric in (round_metric, perturbed):
            for k in (8, 16):
                norms = gram(metric, k)
                val, _ = radial_integral(
                    lambda s: rho(metric, k, s, norms) * k * metric.density(s),
                    tol=1e-11,
                )
                assert abs(val - (k + 1)) < 1e-8

    def test_limit_toward_one(self, perturbed):
        grid = np.array([1.0])
        vals = [abs(rho(perturbed, k, grid)[0] - 1.0) for k in (8, 16, 32, 64)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestExpansionFit:
    def test_round_exact(self, round_metric):
        grid = default_grid(20, 0.2, 0.8)
        fit = expansion_fit(round_metric, [16, 32, 64], grid)
        assert np.max(np.abs(fit.a1 - 1.0)) < 1e-10

    def test_perturbed_matches_half_curvature(self, perturbed):
        grid = default_grid(40, 0.1, 0.9)
        fit = expansion_fit(perturbed, [16, 24, 32, 48, 64], grid)
        target = scalar_curvature(perturbed, grid) / 2
        assert np.max(np.abs(fit.a1 - target) / np.abs(target)) < 0.05

    def test_remainder_bounded(self, perturbed):
        grid = default_grid(20, 0.2, 0.8)
        fit = expansion_fit(perturbed, [16, 32, 64], grid)
        assert np.max(np.abs(fit.remainders)) < 10.0

    def test_stability_under_refinement(self, perturbed):
        grid = default_grid(15, 0.2, 0.8)
        f1 = expansion_fit(perturbed, [16, 32, 64], grid)
        f2 = expansion_fit(perturbed, [16, 24, 32, 48, 64], grid)
        drift = np.max(np.abs(f1.a1 - f2.a1) / np.abs(f2.a1))
        assert drift < 0.005

    def test_needs_three_levels(self, round_metric):
        with pytest.raises(ValueError):
            expansion_fit(round_metric, [8, 16], default_grid(5))


class TestPullbackForm:
    def test_round_equals_reference(self, round_metric):
        s = default_grid(50)
        for k in (4, 16):
            wk = fs_pullback_form(round_metric, k, s)
            assert np.max(np.abs(wk - round_metric.density(s))) < 1e-9

    def test_cohomology_class(self, perturbed):
        for k in (8, 32):
            norms = gram(perturbed, k)
            val, _ = radial_integral(
                lambda s: fs_pullback_form(perturbed, k, s, norms), tol=1e-10
            )
            assert abs(val - 1.0) < 1e-8

    def test_positive(self, perturbed):
        s = default_grid(200, 0.01, 0.99)
        assert np.all(fs_pullback_form(perturbed, 32, s) > 0)


class TestThetaDecay:
    def test_round_vanishes(self, round_metric):
        assert theta_total_variation(round_metric, 16) < 1e-9

    def test_strictly_decreasing(self, perturbed):
        tvs = [theta_total_variation(perturbed, k) for k in (8, 16, 32, 64)]
        assert all(b < a for a, b in zip(tvs, tvs[1:]))

    def test_first_order_coefficient(self, perturbed):
        """TV * k converges to the integral of |a1 - mean| against the area
        form; this pins the observed 1/k rate for non-constant curvature."""
        pred, _ = radial_integral(
            lambda s: np.abs(scalar_curvature(perturbed, s) / 2 - 1.0)
            * perturbed.density(s),
            tol=1e-8,
        )
        seq = [k * theta_total_variation(perturbed, k) for k in (32, 64)]
        assert abs(seq[-1] - pred) < 0.05 * pred


class TestBergmanMoment:
    def test_round_trace_free_zero(self, round_metric):
        for k in (3, 8):
            a = np.zeros(k + 1)
            a[0], a[-1] = 1.0, -1.0
            assert abs(moment_from_bergman(round_metric, k, a)) < 1e-8

    def test_identity_weight_gives_inverse_dimension(self, perturbed):
        k = 4
        val = moment_from_bergman(perturbed, k, np.ones(k + 1))
        assert abs(val - 1.0) < 1e-10

    def test_cross_module_at_k3(self, perturbed):
        from kstab.cycles import moment_matrix, pairing

        k = 3
        a = np.array([1.0, 0.0, 0.0, -1.0])
        res = moment_matrix(image_cycle(perturbed, k), order=48)
        assert abs(moment_from_bergman(perturbed, k, a) - pairing(res.matrix, a)) < 1e-6

    def test_wrong_length(self, round_metric):
        with pytest.raises(ValueError):
            moment_from_bergman(round_metric, 3, [1.0, -1.0])

    def test_round_moment_stays_balanced(self, round_metric):
        """Moment data of the round embeddings vanishes at every level to
        quadrature precision, consistent with (and stronger than) any
        polynomial decay rate in k."""
        from kstab.cycles import moment_matrix, trace_norm

        norms = []
        for k in (2, 4, 8, 16):
            res = moment_matrix(image_cycle(round_metric, k), order=32)
            norms.append(trace_norm(res.matrix))
        assert max(norms) < 1e-10
