"""Density-of-states tests: Gram norms, normalization, expansion, decay."""

import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kstab import bergman, poly, quadrature
from kstab.bergman import (
    RadialMetric,
    _moment_kernel,
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


# The Fraction chain the metric once derived psi, w and S with: Euclid's gcd
# over Fraction and a reduction after every operation.
def _fraction_quorem(a, b):
    rem = poly.add([], [Fraction(c) for c in a])
    quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    for i in reversed(range(len(quo))):
        c = quo[i] = rem[i + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return poly.add([], quo), poly.add([], rem[: len(b) - 1])


def _fraction_ratio(num, den):
    a, b = poly.add([], num), poly.add([], den)
    while b:
        a, b = b, _fraction_quorem(a, b)[1]
    g = [Fraction(c) / a[-1] for c in a]
    num, den = _fraction_quorem(num, g)[0], _fraction_quorem(den, g)[0]
    return [c / den[-1] for c in num], [c / den[-1] for c in den]


def _fraction_diff(f):
    p, q = f
    return _fraction_ratio(poly.add(poly.mul(poly.deriv(p), q), poly.mul(p, poly.deriv(q)), -1), poly.mul(q, q))


def _fraction_mul(f, g):
    return _fraction_ratio(poly.mul(f[0], g[0]), poly.mul(f[1], g[1]))


def _fraction_chain(epsilon, bump):
    """(psi, w, S) of u = log(1 + s) + eps psi as reduced Fraction pairs."""
    psi = _fraction_ratio(*([Fraction(c) for c in p] for p in bump))
    eps = Fraction(epsilon).limit_denominator(10**9)
    s_psi = _fraction_mul(([0, eps], [1]), _fraction_diff(psi))
    su = _fraction_ratio(
        poly.add(poly.mul([0, 1], s_psi[1]), poly.mul(s_psi[0], [1, 1])), poly.mul([1, 1], s_psi[1])
    )
    w = _fraction_diff(su)
    s_logw = _fraction_mul(([0, 1], [1]), _fraction_mul(_fraction_diff(w), w[::-1]))
    return psi, w, _fraction_mul(([-1], [1]), _fraction_mul(_fraction_diff(s_logw), w[::-1]))


# the benchmark's bump shapes s (a + b s) / (1+s)^3 at its three amplitudes,
# then an unreduced bump, string coefficients, eps = 0, a denominator whose
# leading coefficient is not 1, and the shipped bump
_CHAIN_CASES = [(e, ([0, a, b], [1, 3, 3, 1])) for a, b in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3))
                for e in (0.035, 0.04, 0.045)] + [
    (0.05, ([0, 1, 1], [1, 2, 1])),
    (0.03, (["0", "1/2", "-3/7"], ["1", "5/2", "2", "1/2"])),
    (0.0, ([0, 1, 3], [1, 3, 3, 1])),
    (0.02, ([0, 3, 6], [2, 6, 6, 2])),
    (0.1, ([0, 1], [1, 2, 1])),
]


@pytest.mark.parametrize("epsilon, bump", _CHAIN_CASES)
def test_integer_derivation_matches_fraction_chain(epsilon, bump):
    # the reduced form with a monic denominator is canonical, so the
    # Fractions are equal, and S evaluates to the same bits
    psi, w, scal = _fraction_chain(epsilon, bump)
    metric = RadialMetric(epsilon, bump=bump)
    assert (metric._psi, metric._w) == (psi, w)
    assert all(type(c) is Fraction for f in (metric._psi, metric._w) for p in f for c in p)
    s = default_grid(50)
    want = poly.evaluate([float(c) for c in scal[0]], s) / poly.evaluate([float(c) for c in scal[1]], s)
    assert np.array_equal(scalar_curvature(metric, s), want)


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
        t, shift = _moment_kernel(norms, b)(s)
        base = self._exponents(norms, s)
        want, want_sign = oracle(base, axis=0, b=b[:, None], return_sign=True)
        assert np.array_equal(np.sign(t[3]), want_sign)
        assert np.allclose(np.log(np.abs(t[3])) + shift, want, rtol=1e-14, atol=1e-13)
        assert np.allclose(np.log(t[0]) + shift, oracle(base, axis=0), rtol=1e-14, atol=1e-13)

    def test_non_convex_norms_do_not_overflow(self, oracle):
        # log norms -744, 100, 99, 100: at s = 1 the increments of log norms
        # pass log s at j = 2 (exponent -99), but j = 0 carries 744, so a
        # shift read off the increments would overflow exp by 843
        norms = np.exp([-744.0, 100.0, 99.0, 100.0])
        s = np.array([1.0, 0.5, 3.0])
        t, shift = _moment_kernel(norms, np.array([1.0, -1.0, 2.0, 0.5]))(s)
        assert np.all(np.isfinite(t)) and np.all(np.isfinite(shift))
        base = self._exponents(norms, s)
        assert np.allclose(np.log(t[0]) + shift, oracle(base, axis=0), rtol=1e-15, atol=0.0)

    def test_minus_inf_column(self, oracle):
        # the s = 0 column: s^j = 0 for every j >= 1, only j = 0 is left
        norms = np.array([np.e, np.exp(-2.0), np.exp(-3.0)])
        s = np.array([0.0, 1.0])
        t, shift = _moment_kernel(norms)(s)
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
        t, shift = _moment_kernel(norms, a)(s)
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

    @pytest.mark.parametrize("k", [8, 64, 300, 512, 777, 1024])
    @pytest.mark.parametrize("name", ["shipped", "bench"])
    def test_gram_bitwise_equal_to_reference(self, shipped_and_bench, name, k, monkeypatch):
        metric = shipped_and_bench[name]
        want = _reference_gram(metric, k)
        assert np.array_equal(gram(metric, k), want)
        # blocks of 16 rows at the first level and 8 later split every
        # level; 301 and 778 rows leave a remainder of 5 and 2 rows
        monkeypatch.setattr(bergman, "_BLOCK", 2**12)
        monkeypatch.setattr(metric, "_norms", {})
        assert np.array_equal(gram(metric, k), want)

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
    def test_peak_memory_is_flat_in_k(self):
        # rows are built and reduced in blocks of 512 kB; one (k+1) x
        # nodes array at the last level would be 16.8 MB
        data = Path(__file__).resolve().parent.parent / "data" / "bump_metric.json"
        metric = metric_from_json(json.loads(data.read_text()))
        tracemalloc.start()
        try:
            gram(metric, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20

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
        metric, grid = RadialMetric(0.1), default_grid(7)
        norms, kept = gram(metric, 5), rho(metric, 5, grid)
        for a in (norms, kept):
            with pytest.raises(ValueError):
                a[0] = 1.0
        assert gram(metric, 5) is norms and rho(metric, 5, grid) is kept

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


@pytest.fixture
def moment_passes(monkeypatch):
    """Levels k of the ``bergman.rho`` calls that pass norms, one entry per
    evaluation of rho; rho's own evaluation is such a call."""
    import kstab.bergman as bg

    levels, real = [], bg.rho

    def spy(metric, k, grid, norms=None):
        if norms is not None:
            levels.append(len(norms) - 1)
        return real(metric, k, grid, norms)

    monkeypatch.setattr(bg, "rho", spy)
    return levels


class TestKeptRho:
    def test_bergman_command_computes_each_rho_once(self, runner, moment_passes):
        # rho per level, then the fit of a1 reads the same arrays
        from kstab.cli import main

        data = Path(__file__).resolve().parent.parent / "data" / "bump_metric.json"
        res = runner.invoke(main, ["bergman", "--input", str(data), "--k", "16:256:double", "--grid", "20"])
        assert res.exit_code == 0
        assert moment_passes == [16, 32, 64, 128, 256]

    def test_call_with_norms_recomputes_and_keeps_nothing(self, moment_passes):
        metric, grid = RadialMetric(0.1), default_grid(9)
        kept = rho(metric, 8, grid)
        entry, norms = metric._rho[8], gram(metric, 8)
        first, second = bergman.rho(metric, 8, grid, norms), bergman.rho(metric, 8, grid, norms)
        assert moment_passes == [8, 8, 8]
        assert first is not kept and second is not first and first.flags.writeable
        assert np.array_equal(first, kept) and np.array_equal(second, kept)
        assert metric._rho[8] is entry and rho(metric, 8, grid) is kept
        assert moment_passes == [8, 8, 8]

    def test_other_grid_recomputes(self, moment_passes):
        metric, grid = RadialMetric(0.1), default_grid(9)
        kept = rho(metric, 8, grid)
        again = rho(metric, 8, grid.copy())
        assert again is not kept and np.array_equal(again, kept)
        assert rho(metric, 4, grid) is not kept
        assert moment_passes == [8, 8, 4]

    def test_fit_is_bit_identical_after_rho(self):
        ks, grid = [16, 24, 32], default_grid(30)
        fresh = expansion_fit(RadialMetric(0.1), ks, grid).a1
        metric = RadialMetric(0.1)
        for k in ks:
            rho(metric, k, grid)
        assert np.array_equal(expansion_fit(metric, ks, grid).a1, fresh)


class TestKeptNodeSets:
    def test_each_node_set_evaluated_once(self, monkeypatch):
        # gram, rho, the discrepancy and the moment pairing at three levels
        # build each panel rule once; gram evaluates u and w once per node set
        # it integrates over and keeps them; rho evaluates u on the caller's
        # grid at every call; the discrepancy evaluates u and w directly on
        # its first-level nodes and its segment nodes at every call; the
        # moment pairing reads neither
        metric, grid = RadialMetric(0.04, bump=([0, 2, 3], [1, 3, 3, 1])), default_grid(100)
        calls, panels = {"u": [], "density": []}, []
        for name, seen in calls.items():
            real = getattr(metric, name)
            monkeypatch.setattr(metric, name, lambda s, real=real, seen=seen: seen.append(s) or real(s))
        rule = quadrature.panel_rule

        def shared_rule(order, n, *edges):  # the discrepancy's segment rules have edges
            if not edges:
                panels.append(n)
            return rule(order, n, *edges)

        monkeypatch.setattr(quadrature, "panel_rule", shared_rule)
        quadrature._radial_nodes.cache_clear()
        integrated = []  # the node sets gram evaluated u on
        try:
            for k in (16, 64, 256):
                before = len(calls["u"])
                gram(metric, k)
                integrated += calls["u"][before:]
                rho(metric, k, grid)
                theta_total_variation(metric, k)
                moment_from_bergman(metric, k, np.linspace(-1.0, 1.0, k + 1))
            shared = [quadrature._radial_nodes(n)[0] for n in panels]
            first = quadrature._radial_nodes(2)[0]  # the discrepancy's first level
        finally:
            quadrature._radial_nodes.cache_clear()
        assert len(panels) == len(set(panels)) and 2 in panels and 8 in panels
        assert len({id(a) for a in integrated}) == len(integrated) >= 2  # each set once
        assert all(any(a is s for s in shared) for a in integrated)
        want = [sum(a is s for a in integrated) + 3 * (s is first) for s in shared]
        assert want.count(0) >= 1 and max(want) == 3  # sets only the moment pairing reads; the first level
        for seen in calls.values():
            assert [sum(a is s for a in seen) for s in shared] == want
        assert sum(a is grid for a in calls["u"]) == 3
        segments = [a for a in calls["u"] if a is not grid and not any(a is s for s in shared)]
        assert len(segments) >= 3 * 3  # two root steps and the segments, per level
        assert sorted(metric._nodes) == sorted(len(s) for s in integrated)
        assert all(metric._nodes[len(s)][0] is s for s in integrated)

    def test_kept_arrays_are_read_only(self):
        metric = RadialMetric(0.1)
        theta_total_variation(metric, 8)
        moment_from_bergman(metric, 8, np.ones(9))
        kept = [a for entry in metric._nodes.values() for a in entry]
        kept += [a for n in (2, 4, 8) for a in quadrature._radial_nodes(n)]
        assert len(kept) >= 12
        for a in kept:
            with pytest.raises(ValueError):
                a[0] = 1.0


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
        # the second-order remainders k^2 (rho_k - 1 - a1/k)
        rem = [k * k * (rho(perturbed, k, grid) - 1.0 - fit.a1 / k) for k in (16, 32, 64)]
        assert np.max(np.abs(rem)) < 10.0

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


def _split_oracle(metric, k):
    """scipy quad of |rho w / P(k) - w_FS| in x = s/(1+s), split at the sign
    changes that a 4001-point grid brackets, so that every piece is smooth."""
    integrate = pytest.importorskip("scipy.integrate")
    optimize = pytest.importorskip("scipy.optimize")

    def g(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        s = x / (1.0 - x)
        diff = rho(metric, k, s) * metric.density(s) * k / (k + 1.0) - fs_pullback_form(metric, k, s)
        return diff / (1.0 - x) ** 2

    xs = np.linspace(0.0, 1.0, 4001)[1:-1]
    gx = g(xs)
    roots = [
        optimize.brentq(lambda x: g(x)[0], a, b, xtol=1e-15)
        for a, b, ga, gb in zip(xs, xs[1:], gx, gx[1:])
        if ga * gb < 0
    ]
    edges = [0.0, *roots, 1.0]
    return sum(
        integrate.quad(lambda x: abs(g(x)[0]), a, b, epsabs=1e-12, epsrel=1e-10, limit=400)[0]
        for a, b in zip(edges, edges[1:])
    )


# the benchmark's bump shapes s (a + b s) / (1+s)^3 at the ends of its
# amplitude range, and the two metrics whose theta the uniform rule got wrong:
# 2.3e-7 off at k = 64, and stalled at 512 panels at k = 16
_THETA_CASES = [(e, ([0, a, b], [1, 3, 3, 1])) for a, b in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3))
                for e in (0.035, 0.045)] + [(0.039, ([0, 2, 1], [1, 3, 3, 1])), (-0.9, None)]


class TestThetaDecay:
    def test_round_vanishes(self, round_metric, monkeypatch):
        # the round metric's discrepancy is roundoff, with sign changes at 31 of
        # the first level's 64 nodes; the roundoff floor takes none of them
        import kstab.bergman as bg

        found, real = [], bg.radial_integral

        def integral(f, tol, panels=2, breaks=None):
            if callable(breaks):  # theta's, not gram's
                breaks = lambda s, find=breaks: found.append(find(s)) or found[-1]
            return real(f, tol, panels, breaks)

        monkeypatch.setattr(bg, "radial_integral", integral)
        assert theta_total_variation(round_metric, 16) < 1e-9
        assert len(found) == 1 and found[0].size == 0

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

    def test_meets_its_tolerance(self):
        # the uniform rule stopped at 4 panels here, 2.3e-7 off
        metric, k = RadialMetric(0.039, bump=([0, 2, 1], [1, 3, 3, 1])), 64
        want = _split_oracle(metric, k)
        assert want == pytest.approx(8.8285e-4, rel=1e-4)
        assert abs(theta_total_variation(metric, k) - want) <= 1e-8

    @pytest.mark.parametrize("epsilon, bump", _THETA_CASES)
    def test_within_its_tolerance_of_the_split_oracle(self, epsilon, bump):
        metric = RadialMetric(epsilon, bump=bump)
        for k in (16, 64, 512):
            assert abs(theta_total_variation(metric, k) - _split_oracle(metric, k)) <= 1e-8, k


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
