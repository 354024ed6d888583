"""Weight polynomial and Futaki invariant tests.

Expected values for the conic configuration are frozen from a brute-force
monomial enumeration oracle (see enumerate_induced below), independent of
the production counting path.
"""

import itertools
import random
from fractions import Fraction

import pytest

import kstab.weights
from kstab import poly
from kstab.acceptance import shipped_weight_suite
from kstab.weights import (
    CALIBRATED_SIGN,
    Geometry,
    I_coefficient,
    TauPolynomial,
    WeightSystem,
    chow_k,
    fit_exact_polynomial,
    futaki,
    gap,
    induced_weights,
    tau_poly,
    weight_report,
    weight_system_from_json,
)

PROJ = Geometry("projective")


def conic():
    return WeightSystem(1, (0, 0, -1), Geometry("hypersurface", 2, -1))


def _monomial_weights(generators, k):
    monos = (
        m
        for m in itertools.product(range(k + 1), repeat=len(generators))
        if sum(m) == k
    )
    return sorted(sum(e * w for e, w in zip(m, generators)) for m in monos)


def enumerate_induced(ws, k):
    """Brute-force oracle: list all degree-k monomials, remove multiples of
    the initial form by weight bookkeeping."""
    weights = _monomial_weights(ws.generators, k)
    if ws.geometry.kind == "hypersurface" and k >= ws.geometry.degree:
        for w in _monomial_weights(ws.generators, k - ws.geometry.degree):
            weights.remove(w + ws.geometry.initial_weight)
    return weights


def lagrange_fit(points, degree):
    """Reference fit: Lagrange interpolation over Fractions (cubic in the
    degree)."""
    assert len(points) == degree + 1
    coeffs = [Fraction(0)] * (degree + 1)
    for i, (xi, yi) in enumerate(points):
        # numerator polynomial prod_{j != i} (x - xj), then scale
        num = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            num = poly.mul(num, [-Fraction(xj), 1])
            denom *= Fraction(xi) - Fraction(xj)
        scale = Fraction(yi) / denom
        for d, c in enumerate(num):
            coeffs[d] += scale * c
    return coeffs


def multiset_tau(ws, sign):
    """tau_poly by enumeration: fit the sums and the lengths of the level-k
    weight multisets from ``induced_weights`` on the same window."""
    n = ws.dim
    k0 = max(1, ws.geometry.degree - n - 1) if ws.geometry.kind == "hypersurface" else 1
    levels = range(k0, k0 + n + 2)
    data = [induced_weights(ws, k) for k in levels]
    coeffs = fit_exact_polynomial([(k, sign * sum(d)) for k, d in zip(levels, data)], n + 1)
    hilbert = fit_exact_polynomial([(k, len(d)) for k, d in zip(levels, data)][: n + 1], n)
    return TauPolynomial(n, coeffs, hilbert)


def random_systems(seed):
    """Two seeded systems per dimension 0..5 and geometry: projective and
    hypersurfaces of degree 1..4, weights in -3..3 (negative, with repeats),
    and an initial weight read off a random degree-d monomial."""
    rng = random.Random(seed)
    for n in range(6):
        for d in (None, 1, 2, 3, 4):
            for _ in range(2):
                if d is None:
                    yield WeightSystem(n, [rng.randint(-3, 3) for _ in range(n + 1)], PROJ)
                    continue
                gens = [rng.randint(-3, 3) for _ in range(n + 2)]
                lam = sum(rng.choice(gens) for _ in range(d))
                yield WeightSystem(n, gens, Geometry("hypersurface", d, lam))


class TestInducedWeights:
    def test_p1_trivial(self):
        ws = WeightSystem(1, (0, 0), PROJ)
        assert induced_weights(ws, 5) == [0] * 6

    def test_p1_additive(self):
        ws = WeightSystem(1, (2, 5), PROJ)
        assert sorted(induced_weights(ws, 2)) == sorted([4, 7, 10])

    def test_conic_enumeration_oracle(self):
        ws = conic()
        for k in range(1, 7):
            assert induced_weights(ws, k) == enumerate_induced(ws, k)

    def test_suite_against_oracle(self):
        for ws in shipped_weight_suite():
            for k in (1, 2, 3):
                assert induced_weights(ws, k) == enumerate_induced(ws, k)

    def test_dimension_counts(self):
        ws = conic()
        # smooth conic: dim H0(O(k)) = 2k + 1
        for k in range(1, 8):
            assert len(induced_weights(ws, k)) == 2 * k + 1

    @pytest.mark.parametrize("ws", [
        WeightSystem(1, (0, 10**9), PROJ),
        WeightSystem(1, (0, 10**9, 3 * 10**9), Geometry("hypersurface", 2, 10**9)),
    ], ids=["projective", "hypersurface"])
    def test_sparse_large_weights(self, capped_python, ws):
        # a weight span of 10^9 or more, with a handful of monomials
        proc = capped_python(
            "from kstab.weights import Geometry, WeightSystem, gap, induced_weights\n"
            f"ws = {ws!r}\n"
            "print([induced_weights(ws, 3), gap(induced_weights(ws, 3))])\n"
        )
        assert proc.returncode == 0, proc.stderr
        expected = enumerate_induced(ws, 3)
        assert proc.stdout.strip() == str([expected, max(expected) - min(expected)])

    def test_inconsistent_initial_weight(self):
        with pytest.raises(ValueError):
            WeightSystem(1, (0, 0, -1), Geometry("hypersurface", 2, 7))

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            induced_weights(conic(), 0)


class TestGap:
    def test_basic(self):
        assert gap([0, 0, 0]) == 0
        assert gap([3, -1]) == 4

    def test_empty(self):
        with pytest.raises(ValueError):
            gap([])

    def test_scaling_identity(self):
        for ws in shipped_weight_suite():
            g1 = gap(induced_weights(ws, 1))
            for k in range(1, 11):
                assert gap(induced_weights(ws, k)) == k * g1


class TestTauPolynomial:
    def test_zero_weights(self):
        tau = tau_poly(WeightSystem(2, (0, 0, 0), PROJ))
        assert all(c == 0 for c in tau.coeffs)

    def test_p1_closed_form(self):
        # sum over level k of induced weights is (a+b) k (k+1) / 2
        for a, b in ((1, 0), (2, -3), (5, 5)):
            tau = tau_poly(WeightSystem(1, (a, b), PROJ))
            s = Fraction(a + b)
            expected = (0, CALIBRATED_SIGN * s / 2, CALIBRATED_SIGN * s / 2)
            assert tau.coeffs == expected

    def test_conic_exact(self):
        tau = tau_poly(conic())
        assert tau.coeffs == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
        assert tau.hilbert == (Fraction(1), Fraction(2))
        for k in range(1, 6):
            assert tau.tau_at(k) == -sum(enumerate_induced(conic(), k))

    def test_degree_bound(self):
        for ws in shipped_weight_suite():
            tau = tau_poly(ws)
            assert len(tau.coeffs) == ws.dim + 2

    def test_fit_mismatch_raises(self):
        pts = [(k, k**2) for k in range(1, 4)]
        coeffs = fit_exact_polynomial(pts, 2)
        # verification logic lives in tau_poly; exercise the fitter directly
        assert coeffs == [Fraction(0), Fraction(0), Fraction(1)]
        with pytest.raises(ValueError):
            fit_exact_polynomial(pts, 3)

    @pytest.mark.parametrize(
        "ws",
        [WeightSystem(30, range(31), PROJ), WeightSystem(30, range(32), Geometry("hypersurface", 3, 3))],
        ids=["projective", "hypersurface"],
    )
    def test_newton_fit_matches_lagrange_at_dimension_30(self, monkeypatch, ws):
        newton = tau_poly(ws)
        monkeypatch.setattr(kstab.weights, "fit_exact_polynomial", lagrange_fit)
        assert newton == tau_poly(ws)

    def test_newton_fit_matches_lagrange_on_random_points(self):
        rng = random.Random(8)
        for degree in range(9):
            xs = rng.sample(range(-20, 20), degree + 1)
            pts = [(Fraction(x, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for x in xs]
            assert fit_exact_polynomial(pts, degree) == lagrange_fit(pts, degree)

    def test_permutation_invariance(self):
        g1 = tau_poly(WeightSystem(2, (0, 2, 5), PROJ))
        g2 = tau_poly(WeightSystem(2, (5, 0, 2), PROJ))
        assert g1.coeffs == g2.coeffs and g1.hilbert == g2.hilbert

    @pytest.mark.parametrize("sign", [CALIBRATED_SIGN, -CALIBRATED_SIGN])
    def test_closed_forms_match_enumeration(self, sign):
        systems = list(random_systems(seed=5))
        assert any(min(ws.generators) < 0 for ws in systems)
        assert any(len(set(ws.generators)) < len(ws.generators) for ws in systems)
        assert any(ws.geometry.kind == "hypersurface" and ws.geometry.degree - ws.dim - 1 > 1
                   for ws in systems)
        for ws in systems:
            tau = tau_poly(ws, sign)
            assert tau == multiset_tau(ws, sign), ws

    def test_no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("tau_poly enumerated the monomials")

        # a hypersurface's initial weight is checked against the weights of
        # the degree-d monomials when the system is built, so build first
        ws = conic()
        big = WeightSystem(30, range(32), Geometry("hypersurface", 3, 3))
        monkeypatch.setattr(kstab.weights, "induced_weights", refuse)
        monkeypatch.setattr(kstab.weights, "_weight_distribution", refuse)
        assert tau_poly(ws).coeffs == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
        assert weight_report(ws, kmax=4)["futaki"] == "1/8"
        assert len(weight_report(big)["tau_coefficients"]) == 32

    def test_high_degree_window_shift(self):
        # section counts of a quartic curve are polynomial only from level 2;
        # the fit window starts there automatically
        ws = WeightSystem(1, (0, 1, 3), Geometry("hypersurface", 4, 1))
        tau = tau_poly(ws)
        assert tau.hilbert == (Fraction(-2), Fraction(4))
        for k in (3, 5, 8):
            assert tau.sections_at(k) == len(induced_weights(ws, k))


class TestInvariants:
    def test_I_zero_config(self):
        assert I_coefficient(tau_poly(WeightSystem(1, (0, 0), PROJ))) == 0

    def test_I_p1_closed_form(self):
        tau = tau_poly(WeightSystem(1, (3, 1), PROJ))
        assert I_coefficient(tau) == CALIBRATED_SIGN * Fraction(3 + 1, 2)

    def test_I_negative_for_normalized(self):
        for ws in shipped_weight_suite():
            assert I_coefficient(tau_poly(ws)) < 0

    def test_chow_converges_to_futaki(self):
        tau = tau_poly(conic())
        f = futaki(tau)
        assert f == Fraction(1, 8)
        for k in range(1, 51):
            assert abs(chow_k(tau, k) - f) * k <= Fraction(1, 8)

    def test_chow_zero_tau(self):
        tau = tau_poly(WeightSystem(1, (0, 0), PROJ))
        assert chow_k(tau, 3) == 0

    def test_futaki_vanishes_on_diagonal_p1(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert futaki(tau_poly(WeightSystem(1, (a, b), PROJ))) == 0

    def test_futaki_shift_invariance(self):
        base = conic()
        shifted = WeightSystem(1, (1, 1, 0), Geometry("hypersurface", 2, 1))
        assert futaki(tau_poly(base)) == futaki(tau_poly(shifted))

    def test_exactness_types(self):
        tau = tau_poly(conic())
        assert isinstance(futaki(tau), Fraction)
        assert isinstance(chow_k(tau, 7), Fraction)


class TestReportAndJson:
    def test_json_roundtrip(self):
        obj = {
            "dim": 1,
            "generators": [0, 0, -1],
            "geometry": {"type": "hypersurface", "degree": 2, "initial_weight": -1},
        }
        ws = weight_system_from_json(obj)
        assert ws == conic()

    def test_report_fields(self):
        rep = weight_report(conic(), kmax=4)
        assert rep["I"] == "1/2"
        assert rep["V"] == "2/1"
        assert rep["alpha1"] == "1/2"
        assert rep["futaki"] == "1/8"
        assert rep["chow"]["1"] == "1/12"
