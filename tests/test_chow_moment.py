"""Moment matrices, Chow weights, the pairing inequality, and balancing."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kstab.chow as chow_module
from kstab.acceptance import CONIC_FORM, random_admissible_loop, rnc3_cycle
from kstab.chow import (
    HypersurfaceForm,
    _adjugate,
    central_fiber_cycle,
    central_fiber_form,
    check_chow_inequality,
    chow_weight,
    form_from_json,
    form_to_json,
    section_diagonal,
    transformed_form,
)
import kstab.quadrature as quadrature_module
from kstab.bergman import image_cycle, metric_from_json
from kstab.cycles import (
    Component,
    ProjectiveCycle,
    balance_iterate,
    cycle_from_json,
    cycle_to_json,
    moment_matrix,
    pairing,
    trace_free,
    trace_norm,
    transform_cycle,
)
from kstab.laurent import LaurentMatrix, LaurentPoly
from kstab.quadrature import QuadratureError, csum, disc_rule

DATA = Path(__file__).resolve().parents[1] / "data"


def line_cycle():
    return ProjectiveCycle(
        2, [Component(np.array([[1, 0], [0, 0], [0, 1]], dtype=complex))]
    )


def conic_loop():
    return LaurentMatrix.exponent_diagonal([0, 0, 1])


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestMomentMatrix:
    def test_coordinate_line_closed_form(self):
        res = moment_matrix(line_cycle(), order=32)
        assert np.allclose(np.diag(res.raw).real, [0.5, 0.0, 0.5], atol=1e-12)
        assert np.allclose(
            np.diag(res.matrix).real, [1 / 6, -1 / 3, 1 / 6], atol=1e-12
        )

    def test_trace_free(self, rng):
        z = rnc3_cycle(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        res = moment_matrix(z, order=48)
        assert abs(np.trace(res.matrix)) < 1e-13
        assert np.allclose(res.matrix, res.matrix.conj().T)

    def test_unitary_equivariance(self, rng):
        z = rnc3_cycle()
        u = random_unitary(rng, 4)
        m1 = moment_matrix(transform_cycle(z, u), order=40).matrix
        m0 = moment_matrix(z, order=40).matrix
        assert np.max(np.abs(m1 - u @ m0 @ u.conj().T)) < 1e-9

    def test_rnc3_balanced(self):
        res = moment_matrix(rnc3_cycle(), order=32)
        assert trace_norm(res.matrix) < 1e-12

    def test_rnc3_matches_bergman_side(self):
        # the degree-3 standard embedding is the round metric's level-3 image
        from kstab.bergman import RadialMetric, image_cycle

        std = moment_matrix(rnc3_cycle(), order=40).matrix
        img = moment_matrix(image_cycle(RadialMetric(0.0), 3), order=40).matrix
        assert np.max(np.abs(std - img)) < 1e-10

    def test_base_point_detected(self):
        # common factor s: a base point at 0
        comp = Component(np.array([[0, 1], [0, 0], [0, 1]], dtype=complex))
        with pytest.raises(QuadratureError):
            moment_matrix(ProjectiveCycle(2, [comp]), order=24)

    def test_error_estimate_reported(self):
        res = moment_matrix(line_cycle(), order=16)
        assert res.quad_error < 1e-10


class TestPairingAndTraceNorm:
    def test_zero_weight(self):
        m = moment_matrix(line_cycle(), order=16).matrix
        assert pairing(m, [0, 0, 0]) == 0.0

    def test_trace_free_vs_identity(self, rng):
        h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = trace_free(0.5 * (h + h.conj().T))
        assert abs(pairing(m, [3, 3, 3, 3, 3])) < 1e-12

    def test_trace_norm_values(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pairing(np.eye(3), [1, 2])

    def test_pairing_bound(self, rng):
        from kstab.weights import gap

        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = rng.integers(-4, 5, size=n)
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = trace_free(0.5 * (h + h.conj().T))
            assert abs(pairing(m, a)) <= 2 * gap(a) * trace_norm(m) + 1e-12


class TestChowWeight:
    def test_identity_loop(self):
        assert chow_weight(CONIC_FORM, LaurentMatrix.identity(3)) == 0

    def test_conic_exact(self):
        assert chow_weight(CONIC_FORM, conic_loop()) == Fraction(1, 12)

    def test_matches_weight_module_chow1(self):
        """Cross-module: k = 1 Chow number of the dual weight system."""
        from kstab.weights import Geometry, WeightSystem, chow_k, tau_poly

        ws = WeightSystem(1, (0, 0, -1), Geometry("hypersurface", 2, -1))
        assert chow_k(tau_poly(ws), 1) == chow_weight(CONIC_FORM, conic_loop())

    def test_trivialization_invariance(self):
        scaled = HypersurfaceForm.from_dict(
            3, {(1, 0, 1): {5: 1}, (0, 2, 0): {5: -1}}
        )
        assert chow_weight(scaled, conic_loop()) == chow_weight(
            CONIC_FORM, conic_loop()
        )

    def test_normalize_invariance(self):
        from kstab.laurent import normalize

        g = conic_loop()
        assert chow_weight(CONIC_FORM, normalize(g)) == chow_weight(CONIC_FORM, g)

    def test_volume_validation(self):
        with pytest.raises(ValueError):
            chow_weight(CONIC_FORM, conic_loop(), volume=Fraction(3))

    def test_flipped_convention_differs(self):
        cal = chow_weight(CONIC_FORM, conic_loop(), convention="calibrated")
        flip = chow_weight(CONIC_FORM, conic_loop(), convention="flipped")
        assert cal != flip

    def test_double_line_case(self):
        g = LaurentMatrix.exponent_diagonal([0, 1, 0])
        assert chow_weight(CONIC_FORM, g) == Fraction(1, 3)
        fiber = central_fiber_cycle(CONIC_FORM, g)
        assert [c.multiplicity for c in fiber.components] == [2]


def _random_poly(rng, terms, low=0):
    return LaurentPoly(
        {rng.randint(low, low + 2): Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
         for _ in range(terms)}
    )


def _ldu_loop(rng, n):
    """L t^D U with L lower, U upper unitriangular and t-dependent entries."""
    zero = LaurentPoly()
    low = LaurentMatrix([
        [LaurentPoly({0: rng.choice([1, -2, 3])}) if i == j
         else (_random_poly(rng, rng.randint(0, 2)) if i > j else zero) for j in range(n)]
        for i in range(n)
    ])
    up = LaurentMatrix([
        [LaurentPoly.one() if i == j
         else (_random_poly(rng, rng.randint(0, 2), low=-1) if i < j else zero) for j in range(n)]
        for i in range(n)
    ])
    mid = LaurentMatrix.exponent_diagonal([rng.randint(-2, 3) for _ in range(n)])
    return low @ mid @ up


def _random_form(rng, n, d):
    """Complex and t-dependent coefficients on a random set of monomials."""
    mono = {}
    for exps in itertools.product(range(d + 1), repeat=n):
        if sum(exps) == d and rng.random() < 0.7:
            re, im = Fraction(rng.choice([-4, -1, 1, 2]), rng.choice([1, 3])), Fraction(rng.choice([0, rng.randint(-2, 2)]))
            mono[exps] = {rng.randint(-1, 2): (re, im), rng.randint(0, 3): (im, re)} if rng.random() < 0.3 else (re, im)
    mono.setdefault((d,) + (0,) * (n - 1), 1)
    return HypersurfaceForm.from_dict(n, mono)


def _expand_reference(form, m):
    """F(m x) by plain Laurent-polynomial arithmetic on the real and
    imaginary parts: {y-exponents: {t-exponent: (re, im)}}."""
    n = form.nvars
    out = {}
    for exps, lc in form.monomials.items():
        term = {(0,) * n: LaurentPoly.one()}
        for a, e in enumerate(exps):
            for _ in range(e):
                nxt = {}
                for mono, c in term.items():
                    for b in range(n):
                        key = tuple(k + (i == b) for i, k in enumerate(mono))
                        nxt[key] = nxt.get(key, LaurentPoly()) + c * m.entries[a][b]
                term = nxt
        c_re = LaurentPoly({e: v[0] for e, v in lc.items()})
        c_im = LaurentPoly({e: v[1] for e, v in lc.items()})
        for mono, c in term.items():
            re, im = out.get(mono, (LaurentPoly(), LaurentPoly()))
            out[mono] = (re + c_re * c, im + c_im * c)
    expanded = {}
    for mono, (re, im) in out.items():
        lc = {e: (re.coefficient(e), im.coefficient(e)) for e in set(re.coeffs) | set(im.coeffs)}
        if lc:
            expanded[mono] = lc
    return expanded


def _full_span_answer(form, g, convention):
    """Chow weight and lowest coefficients read off the full expansion."""
    path = transformed_form(form, g, convention)
    order = min(min(lc) for lc in path.monomials.values())
    lowest = {mono: complex(*map(float, lc[order])) for mono, lc in path.monomials.items() if order in lc}
    N, d, det_ord = g.size - 1, form.degree, g.det().ord()
    ch = Fraction(det_ord, N + 1) - Fraction(order, d * N)
    return (ch if convention == "calibrated" else -ch), lowest


class TestWindowedOrder:
    """The doubling window against the full-span expansion."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_span(self, seed):
        rng = random.Random(seed)
        for _ in range(8):
            n = rng.randint(2, 4)
            d = rng.randint(1, 3 if n < 4 else 2)
            g, form = _ldu_loop(rng, n), _random_form(rng, n, d)
            for convention in ("calibrated", "flipped"):
                ch, lowest = _full_span_answer(form, g, convention)
                assert chow_weight(form, g, convention=convention) == ch
                if convention == "calibrated":
                    assert central_fiber_form(form, g) == lowest

    @pytest.mark.parametrize("seed", range(3))
    def test_full_span_matches_plain_expansion(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(5):
            n = rng.randint(2, 3)
            g, form = _ldu_loop(rng, n), _random_form(rng, n, rng.randint(1, 2))
            for convention, m in (("calibrated", _adjugate(g)), ("flipped", g)):
                assert transformed_form(form, g, convention).monomials == _expand_reference(form.canonical_lift(), m)

    def test_cancellation_doubles_window(self, monkeypatch):
        # F = x0 - x1 under adj(g) = [[1, 0], [1, t^5]]: F(adj(g) x) = -t^5 y1,
        # order 5 above d * nu = 0, so windows 1, 2 and 4 are all zero
        t5 = LaurentPoly.t_power(5)
        g = LaurentMatrix([[t5, LaurentPoly()], [-LaurentPoly.one(), LaurentPoly.one()]])
        form = HypersurfaceForm.from_dict(2, {(1, 0): 1, (0, 1): -1})
        sizes = []
        real = chow_module._window
        monkeypatch.setattr(
            chow_module, "_window", lambda f, rows, K: sizes.append(K) or real(f, rows, K)
        )
        assert chow_weight(form, g) == Fraction(5, 2) - 5
        assert sizes == [1, 2, 4, 6]
        assert central_fiber_form(form, g) == {(0, 1): -1}
        assert chow_weight(form, g, convention="flipped") == _full_span_answer(form, g, "flipped")[0]

    def test_vanishing_form_raises(self):
        # adj of the singular [[1, 1], [1, 1]] kills x0 + x1
        one = LaurentPoly.one()
        g = LaurentMatrix([[one, one], [one, one]])
        form = HypersurfaceForm.from_dict(2, {(1, 0): 1, (0, 1): 1})
        for fn in (central_fiber_form, transformed_form):
            with pytest.raises(ValueError, match="vanished identically"):
                fn(form, g)

    def test_does_not_expand_the_full_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("full expansion requested")

        expected = chow_weight(CONIC_FORM, conic_loop())
        monkeypatch.setattr(chow_module, "transformed_form", refuse)
        assert chow_weight(CONIC_FORM, conic_loop()) == expected == Fraction(1, 12)
        assert set(central_fiber_form(CONIC_FORM, conic_loop())) == {(1, 0, 1)}
        assert len(central_fiber_cycle(CONIC_FORM, conic_loop()).components) == 2


class TestCentralFiber:
    def test_conic_limit_is_line_pair(self):
        fiber = central_fiber_cycle(CONIC_FORM, conic_loop())
        assert len(fiber.components) == 2
        assert fiber.total_degree == 2
        mono = central_fiber_form(CONIC_FORM, conic_loop())
        assert set(mono) == {(1, 0, 1)}

    def test_identity_limit_smooth(self):
        fiber = central_fiber_cycle(CONIC_FORM, LaurentMatrix.identity(3))
        assert len(fiber.components) == 1
        assert fiber.components[0].degree == 2
        res = moment_matrix(fiber, order=48)
        assert abs(res.volume - 2.0) < 1e-9


class TestChowInequality:
    def test_equality_on_exponent_loop(self):
        g = conic_loop()
        fiber = central_fiber_cycle(CONIC_FORM, g)
        chk = check_chow_inequality(g, fiber, form=CONIC_FORM, order=48)
        assert chk.satisfied
        assert abs(chk.slack) < 1e-9
        assert chk.exponents == section_diagonal(g) == (0, 0, -1)

    def test_identity_equality(self):
        g = LaurentMatrix.identity(3)
        fiber = central_fiber_cycle(CONIC_FORM, g)
        chk = check_chow_inequality(g, fiber, form=CONIC_FORM, order=48)
        assert chk.satisfied and chk.chow == 0

    def test_perturbed_suite_never_violates(self):
        rng = random.Random(1234)
        strict = 0
        for _ in range(20):
            g, _ = random_admissible_loop(rng)
            fiber = central_fiber_cycle(CONIC_FORM, g)
            chk = check_chow_inequality(g, fiber, form=CONIC_FORM, order=40)
            assert chk.satisfied
            if chk.slack > 1e-6:
                strict += 1
        assert strict > 0, "expected some strictly unstable directions"


class TestBalance:
    def test_balanced_input_stops_immediately(self):
        res = balance_iterate(rnc3_cycle(), max_steps=10, tol=1e-8, order=24)
        assert res.converged and res.steps == 0

    def test_distorted_rnc_converges(self):
        res = balance_iterate(
            rnc3_cycle(np.diag([2.0, 1.0, 1.0, 1.0])), max_steps=500, tol=1e-8
        )
        assert res.converged
        assert res.residuals[-1] <= 1e-8
        logs = np.log(res.residuals[5:])
        assert np.all(np.diff(logs) < 0)

    def test_unstable_cycle_reports_not_raises(self):
        lines = ProjectiveCycle(
            2,
            [
                Component(np.array([[0, 0], [1, 0], [0, 1]], dtype=complex)),
                Component(np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)),
            ],
        )
        distorted = transform_cycle(lines, np.diag([3.0, 1.0, 1.0]))
        res = balance_iterate(distorted, max_steps=40, tol=1e-10, order=24)
        assert not res.converged
        assert len(res.residuals) >= 1


# -- reference: the per-step balance loop before the precomputed kernel ----------


def _horner(coeffs, s):
    out = np.broadcast_to(coeffs[:, -1][:, None], (coeffs.shape[0], len(s))).copy()
    for j in range(coeffs.shape[1] - 2, -1, -1):
        out = out * s[None, :] + coeffs[:, j][:, None]
    return out


def _reference_cycle_raw(cycle, order):
    """Horner charts at every call and a 3-operand einsum per chart."""
    nodes, w = disc_rule(order)
    n1 = cycle.ambient_dim + 1
    raw, mass = np.zeros((n1, n1), dtype=complex), 0.0
    for comp in cycle.components:
        for part in (comp, comp.reversed()):
            c = part.coeffs
            p = _horner(c, nodes)
            dp = _horner(c[:, 1:] * np.arange(1, c.shape[1])[None, :], nodes)
            norm2 = np.sum(np.abs(p) ** 2, axis=0)
            if np.any(norm2 == 0.0):
                raise QuadratureError("parametrization with base points: |p(s)| = 0")
            dd = np.sum(dp * np.conj(dp), axis=0).real
            pd = np.sum(dp * np.conj(p), axis=0)
            wk = w * (dd * norm2 - np.abs(pd) ** 2) / norm2**2
            mass += comp.multiplicity * csum(wk)
            raw += comp.multiplicity * np.einsum("k,ak,bk->ab", wk, p, np.conj(p) / norm2[None, :])
    return 0.5 * (raw + raw.conj().T), mass


def _reference_moment(cycle, order):
    raw1, _ = _reference_cycle_raw(cycle, order)
    raw2, mass2 = _reference_cycle_raw(cycle, 2 * order)
    v = float(cycle.total_degree)
    return trace_free(raw2 / v), mass2, float(np.max(np.abs(raw2 - raw1))) / v


def _reference_balance(cycle, max_steps=500, tol=1e-8, order=32):
    """(cycle, residuals, converged, steps, transform, note) of the old loop:
    transform the cycle and re-evaluate its charts at every step."""
    n1 = cycle.ambient_dim + 1
    current, g_total, residuals = cycle, np.eye(n1, dtype=complex), []
    for step in range(max_steps + 1):
        try:
            raw, mass = _reference_cycle_raw(current, order)
            raw = raw / mass
            res = trace_norm(trace_free(raw))
        except (QuadratureError, np.linalg.LinAlgError) as exc:
            return current, residuals, False, step, g_total, f"iteration broke down: {exc}"
        residuals.append(res)
        if res <= tol:
            return current, residuals, True, step, g_total, ""
        evals, evecs = np.linalg.eigh(raw)
        if np.any(evals <= 0):
            return current, residuals, False, step, g_total, "second-moment matrix lost positivity"
        g = evecs @ np.diag((n1 * evals) ** -0.5) @ evecs.conj().T
        g_total = g @ g_total
        current = transform_cycle(current, g)
        for c in current.components:
            c.coeffs = c.coeffs / np.max(np.abs(c.coeffs))
    return current, residuals, False, max_steps, g_total, ""


def _bump_image(k):
    return image_cycle(metric_from_json(json.loads((DATA / "bump_metric.json").read_text())), k)


def _two_conics():
    """Two conics in P^2 meeting in four points, the second of multiplicity 2."""
    std = np.eye(3, dtype=complex)
    moved = np.array([[1, 0.5, 0.2], [0.1, 1, 0.3j], [0.4, 0, 1]]) @ std
    return ProjectiveCycle(2, [Component(std), Component(moved, multiplicity=2)])


# (cycle, balance_iterate options)
_KERNEL_CASES = {
    "rnc3_distorted": (lambda: rnc3_cycle(np.diag([2.0, 1.0, 1.0, 1.0])), {}),
    **{f"image_k{k}": ((lambda k=k: _bump_image(k)), {}) for k in range(4, 9)},
    "two_conics": (_two_conics, {"tol": 1e-6, "order": 16}),
}


class TestBalanceKernel:
    """The precomputed kernel against the per-step reference loop."""

    @pytest.mark.parametrize("name", sorted(_KERNEL_CASES))
    def test_matches_reference_loop(self, name):
        make, options = _KERNEL_CASES[name]
        cycle = make()
        res = balance_iterate(cycle, **options)
        ref_cycle, ref_res, converged, steps, transform, note = _reference_balance(cycle, **options)
        assert converged and res.converged and res.steps == steps and res.note == note
        assert np.max(np.abs(np.array(res.residuals) - ref_res)) < 1e-12
        assert np.max(np.abs(res.transform - transform)) < 1e-12 * np.max(np.abs(transform))
        for c, ref in zip(res.cycle.components, ref_cycle.components):
            assert c.multiplicity == ref.multiplicity
            assert np.max(np.abs(c.coeffs - ref.coeffs)) < 1e-12

    def test_crossing_lines_break_down_like_the_reference(self):
        # the breakdown step depends on roundoff; the residuals before it do not
        cycle = cycle_from_json(json.loads((DATA / "crossing_lines_cycle.json").read_text()))
        res = balance_iterate(cycle)
        _, ref_res, _, _, _, ref_note = _reference_balance(cycle)
        assert not res.converged
        assert res.note == ref_note == "second-moment matrix lost positivity"
        n = min(len(res.residuals), len(ref_res))
        assert n > 10
        assert np.max(np.abs(np.array(res.residuals[:n]) - ref_res[:n])) < 1e-12

    @pytest.mark.parametrize("name, order", [
        ("rnc3_distorted", 40), ("image_k8", 48), ("two_conics", 24)])
    def test_moment_matches_einsum_reference(self, name, order):
        # order 48 puts 4656 and 18528 nodes per chart: more than one block
        cycle = _KERNEL_CASES[name][0]()
        matrix, volume, quad_error = _reference_moment(cycle, order)
        res = moment_matrix(cycle, order=order)
        assert np.max(np.abs(res.matrix - matrix)) < 1e-13
        assert abs(res.volume - volume) < 1e-13
        assert abs(res.quad_error - quad_error) < 1e-13

    def test_charts_evaluated_once_per_run(self, monkeypatch):
        calls = []
        real = Component.eval
        monkeypatch.setattr(Component, "eval", lambda self, s: calls.append(1) or real(self, s))
        cycle = _two_conics()
        res = balance_iterate(cycle, max_steps=20, order=16)
        assert res.steps == 20
        assert len(calls) == 2 * len(cycle.components)

    def test_legendre_rule_computed_once_per_order(self, monkeypatch):
        orders = []
        real = quadrature_module.roots_legendre
        monkeypatch.setattr(quadrature_module, "roots_legendre", lambda n: orders.append(n) or real(n))
        quadrature_module._legendre.cache_clear()
        try:
            balance_iterate(_two_conics(), max_steps=5, order=20)
            balance_iterate(rnc3_cycle(np.diag([2.0, 1.0, 1.0, 1.0])), order=20)
            moment_matrix(line_cycle(), order=20)
            moment_matrix(line_cycle(), order=20)
        finally:
            quadrature_module._legendre.cache_clear()
        assert sorted(orders) == [20, 40]


class TestJsonInterfaces:
    def test_cycle_roundtrip(self):
        z = rnc3_cycle()
        z2 = cycle_from_json(cycle_to_json(z))
        assert z2.ambient_dim == 3
        assert np.allclose(z2.components[0].coeffs, z.components[0].coeffs)

    def test_form_roundtrip(self):
        f = form_from_json(form_to_json(CONIC_FORM))
        assert f.monomials == CONIC_FORM.monomials

    def test_form_parse(self):
        f = form_from_json({"form": {"1,0,1": [1, 0], "0,2,0": [-1, 0]}})
        assert f.degree == 2 and f.nvars == 3
