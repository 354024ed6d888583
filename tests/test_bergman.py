"""Density-of-states tests: Gram norms, normalization, expansion, decay."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from kstab import quadrature
from kstab.bergman import (
    RadialMetric,
    _moment_sums,
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
        assert radial_integral(round_metric.density, tol=1e-12)[0] == pytest.approx(1.0, abs=1e-12)
        assert radial_integral(perturbed.density, tol=1e-12)[0] == pytest.approx(1.0, abs=1e-10)

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

    def test_matches_complex_coordinate_derivation(self):
        # independent of the radial reduction: g = d/dz d/dzbar u(z zbar)
        # and S = -(1/g) d/dz d/dzbar log g, derived by sympy in z and
        # zbar for psi = (s - s^2 + 2 s^3) / (1 + s)^4, then read at z =
        # zbar = sqrt(s)
        sp = pytest.importorskip("sympy")

        z, zb = sp.symbols("z zb", positive=True)
        num, den = [0, 1, -1, 2], [1, 4, 6, 4, 1]
        q = z * zb
        psi = sum(c * q**i for i, c in enumerate(num)) / sum(c * q**i for i, c in enumerate(den))
        g = sp.diff(sp.log(1 + q) + sp.Rational(1, 20) * psi, z, zb)
        scal = -sp.diff(sp.log(g), z, zb) / g
        metric = RadialMetric(0.05, bump=(num, den))
        pts = np.array([1e-3, 0.2, 1.0, 3.5, 40.0, 1e3])
        want = []
        for x in pts:
            r = sp.sqrt(sp.Rational(x))
            want.append(float(scal.subs({z: r, zb: r}).evalf(30)))
        got = scalar_curvature(metric, pts)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12
        assert np.max(np.abs(got - 2.0)) > 0.01  # not the round value

    def test_linearization_in_epsilon(self):
        eps = 1e-4
        s = default_grid(30, 0.1, 0.9)
        fd = (scalar_curvature(RadialMetric(eps), s) - 2.0) / eps
        fd2 = (scalar_curvature(RadialMetric(2 * eps), s) - 2.0) / (2 * eps)
        # first-order coefficient agrees to 1% of its scale between step sizes
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(fd - fd2)) < 0.01 * scale


class TestLogSumExpOracle:
    """The moment kernel's sums against scipy's logsumexp of the exponents
    j log s - log ||z^j||^2: log|T| + shift and sign(T) are its value."""

    @pytest.fixture
    def oracle(self):
        return pytest.importorskip("scipy.special").logsumexp

    @staticmethod
    def _exponents(norms, s):
        j = np.arange(len(norms))[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            base = j * np.log(s)[None, :] - np.log(norms)[:, None]
        base[0] = -np.log(norms[0])
        return base

    def test_signed_weights(self, oracle, rng):
        norms = np.exp(rng.normal(scale=30.0, size=40))
        s = np.exp(rng.normal(size=7))
        b = rng.normal(size=40)
        t, shift = _moment_sums(norms, s, b)
        base = self._exponents(norms, s)
        want, want_sign = oracle(base, axis=0, b=b[:, None], return_sign=True)
        assert np.array_equal(np.sign(t[3]), want_sign)
        assert np.allclose(np.log(np.abs(t[3])) + shift, want, rtol=1e-14, atol=1e-13)
        assert np.allclose(np.log(t[0]) + shift, oracle(base, axis=0), rtol=1e-14, atol=1e-13)

    def test_minus_inf_column(self, oracle):
        # the s = 0 column: s^j = 0 for every j >= 1, only j = 0 is left
        norms = np.array([np.e, np.exp(-2.0), np.exp(-3.0)])
        s = np.array([0.0, 1.0])
        t, shift = _moment_sums(norms, s)
        base = self._exponents(norms, s)
        assert np.allclose(np.log(t[0]) + shift, oracle(base, axis=0), rtol=1e-15, atol=0.0)
        want = oracle(base[1:], axis=0, b=np.array([[1.0], [4.0]]))  # T_2: j^2 = 1, 4
        assert t[2, 0] == 0.0 and want[0] == -np.inf
        assert np.log(t[2, 1]) + shift[1] == pytest.approx(want[1], rel=1e-15)
        r = rho(RadialMetric(0.1), 8, s)
        assert np.all(np.isfinite(r)) and np.all(r > 0)

    def test_zero_weighted_sum(self, oracle):
        # moment_from_bergman's H_A = (a @ E) / (1 @ E) is 0 in the first column
        norms, s = np.ones(2), np.array([1.0, 2.0])
        a = np.array([1.0, -1.0])
        t, shift = _moment_sums(norms, s, a)
        want, want_sign = oracle(self._exponents(norms, s), axis=0, b=a[:, None], return_sign=True)
        assert t[3, 0] / t[0, 0] == 0.0
        assert want_sign[0] == 0.0 and want[0] == -np.inf
        assert np.sign(t[3, 1]) == want_sign[1] == -1.0
        assert np.log(-t[3, 1]) + shift[1] == pytest.approx(want[1], rel=1e-15)


# Reference formulas: Gram norms with a separate 8-panel scale pass, and
# the moments T_p as three shifted log-sum-exps, each over its own
# exponential.
def _reference_gram(metric, k, tol=1e-12):
    j = np.arange(k + 1)[:, None]
    nodes, _ = quadrature.panel_rule(32, 8)
    s = nodes / (1.0 - nodes)
    scale_log = np.max(j * np.log(s)[None, :] - k * metric.u(s)[None, :], axis=1)

    def f(s):
        expo = j * np.log(s)[None, :] - k * metric.u(s)[None, :]
        return np.exp(expo - scale_log[:, None]) * metric.density(s)[None, :]

    cur, _ = radial_integral(f, tol, panels=8)
    return k * cur * np.exp(scale_log)


def _reference_logsumexp(a, b=None, return_sign=False):
    shift = np.max(a, axis=0)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    terms = np.exp(a - shift)
    total = np.sum(terms if b is None else b * terms, axis=0)
    with np.errstate(divide="ignore"):
        out = np.log(np.abs(total)) + shift
    return (out, np.sign(total)) if return_sign else out


def _reference_log_moments(k, norms, s, dtype=float):
    j = np.arange(k + 1, dtype=dtype)
    s = np.asarray(s, dtype=dtype)
    base = j[:, None] * np.log(s)[None, :] - np.log(norms.astype(dtype))[:, None]
    return (
        _reference_logsumexp(base),
        _reference_logsumexp(base[1:], b=j[1:, None]),
        _reference_logsumexp(base[1:], b=j[1:, None] ** 2),
    )


def _reference_rho(metric, k, s, norms):
    return np.exp(_reference_log_moments(k, norms, s)[0] - k * metric.u(s))


def _reference_pullback(k, s, norms, dtype=float):
    lt0, lt1, lt2 = _reference_log_moments(k, norms, s, dtype)
    a, b = np.exp(lt1 - lt0), np.exp(lt2 - lt0)
    return ((b - a * a) / (k * np.asarray(s, dtype=dtype))).astype(float)


def _reference_moment(metric, k, a, tol=1e-10):
    norms = gram(metric, k)
    j = np.arange(k + 1)

    def f(s):
        base = j[:, None] * np.log(s)[None, :] - np.log(norms)[:, None]
        num, sign = _reference_logsumexp(base, b=a[:, None], return_sign=True)
        h = sign * np.exp(num - _reference_logsumexp(base))
        return h * _reference_pullback(k, s, norms)

    return radial_integral(f, tol=tol)[0]


# one of the benchmark's metrics: eps in [0.035, 0.045], bump s (a + b s) / (1+s)^3
BENCH_METRIC = RadialMetric(0.04, bump=([0, 1, 3], [1, 3, 3, 1]))


@pytest.fixture(scope="module")
def shipped_and_bench():
    data = Path(__file__).resolve().parent.parent / "data" / "bump_metric.json"
    return {"shipped": metric_from_json(json.loads(data.read_text())), "bench": BENCH_METRIC}


class TestMomentKernel:
    @pytest.mark.parametrize("k", [2, 64, 256, 512])
    def test_gram_evaluates_each_level_once(self, k, monkeypatch):
        metric = RadialMetric(0.04, bump=([0, 1, 3], [1, 3, 3, 1]))
        calls = []
        u = metric.u
        monkeypatch.setattr(metric, "u", lambda s: calls.append(len(s)) or u(s))
        gram(metric, k)
        # levels of 8, 16, ... panels of order 32, each once; the reference
        # evaluated the 8-panel level twice, once for the scale alone
        assert calls == [256 * 2**i for i in range(len(calls))]
        assert len(calls) == (2 if k <= 256 else 3)

    @pytest.mark.parametrize("k", [8, 64, 512, 1024])
    @pytest.mark.parametrize("name", ["shipped", "bench"])
    def test_gram_bitwise_equal_to_reference(self, shipped_and_bench, name, k):
        metric = shipped_and_bench[name]
        assert np.array_equal(gram(metric, k), _reference_gram(metric, k))

    @pytest.mark.parametrize("k", [16, 64, 256, 1024])
    @pytest.mark.parametrize("name", ["shipped", "bench"])
    def test_rho_matches_reference(self, shipped_and_bench, name, k):
        metric = shipped_and_bench[name]
        s, norms = default_grid(400), gram(metric, k)
        want = _reference_rho(metric, k, s, norms)
        assert np.max(np.abs(rho(metric, k, s, norms) / want - 1.0)) < 1e-12

    @pytest.mark.parametrize("k", [16, 64, 256, 1024])
    @pytest.mark.parametrize("name", ["shipped", "bench"])
    def test_pullback_matches_reference(self, shipped_and_bench, name, k):
        # T2/T0 - (T1/T0)^2 cancels by up to k s; the reference's exp(lt1 - lt0)
        # carries an error of |lt| ulps into it (8.5e-9 relative at k = 1024 in
        # double), so the reference is evaluated in extended precision
        if np.finfo(np.longdouble).eps >= 1e-18:
            pytest.skip("long double is no wider than double here")
        metric = shipped_and_bench[name]
        s, norms = default_grid(400), gram(metric, k)
        want = _reference_pullback(k, s, norms, np.longdouble)
        assert np.max(np.abs(fs_pullback_form(metric, k, s) / want - 1.0)) < 1e-10

    @pytest.mark.parametrize("k", [16, 64, 256, 1024])
    def test_pullback_exact_on_round_metric(self, round_metric, k):
        s = default_grid(400)
        got = fs_pullback_form(round_metric, k, s)
        assert np.max(np.abs(got / round_metric.density(s) - 1.0)) < 1e-10

    @pytest.mark.parametrize("k", [3, 4, 8])
    @pytest.mark.parametrize("name", ["round_metric", "perturbed"])
    def test_moment_matches_reference(self, request, name, k):
        metric = request.getfixturevalue(name)
        for a in (np.linspace(-1.0, 1.0, k + 1) ** 3, np.eye(k + 1)[0], np.ones(k + 1)):
            assert abs(moment_from_bergman(metric, k, a) - _reference_moment(metric, k, a)) < 1e-12


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


class TestGramMemo:
    def test_one_quadrature_per_metric_and_level(self, gram_quadratures):
        metric, grid = RadialMetric(0.1), default_grid(7)
        for k in (4, 6, 8):
            rho(metric, k, grid)
            theta_total_variation(metric, k)
            image_cycle(metric, k)
            moment_from_bergman(metric, k, np.eye(k + 1)[0])
        expansion_fit(metric, [4, np.int64(6), 8], grid)
        fs_pullback_form(metric, 6, grid)
        assert sorted(gram_quadratures) == [4, 6, 8]

    def test_norms_are_read_only(self):
        metric = RadialMetric(0.1)
        norms = gram(metric, 5)
        with pytest.raises(ValueError):
            norms[0] = 1.0
        assert gram(metric, 5) is norms

    def test_metrics_do_not_share_norms(self, gram_quadratures):
        import kstab.bergman as bg

        a, b = RadialMetric(0.0), RadialMetric(0.1)
        assert not np.array_equal(bg.gram(a, 8), bg.gram(b, 8))
        assert gram_quadratures == [8, 8]

    def test_failed_quadrature_is_not_kept(self, monkeypatch):
        import kstab.bergman as bg

        metric, calls = RadialMetric(0.1), []

        def nonpositive(f, *args, **kwargs):
            calls.append(f(np.array([0.5, 1.0, 2.0])))
            return -np.ones(4), None

        monkeypatch.setattr(bg, "radial_integral", nonpositive)
        for _ in range(2):
            with pytest.raises(quadrature.QuadratureError):
                gram(metric, 3)
        assert len(calls) == 2
        monkeypatch.undo()
        assert np.all(gram(metric, 3) > 0)


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
            val, _ = radial_integral(lambda s: fs_pullback_form(perturbed, k, s), tol=1e-10)
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
