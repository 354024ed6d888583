"""Moment matrices, Chow weights, the pairing inequality, and balancing."""

import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kstab.chow as chow_module
import kstab.cycles as cycles_module
import kstab.laurent as laurent_module
from kstab.acceptance import CONIC_FORM, random_admissible_loop, rnc3_cycle
from kstab.chow import (
    HypersurfaceForm,
    central_fiber_cycle,
    check_chow_inequality,
    chow_weight,
    form_from_json,
    transformed_form,
)
import kstab.quadrature as quadrature_module
from kstab.bergman import RadialMetric, image_cycle, metric_from_json
from kstab.cycles import (
    Component,
    ProjectiveCycle,
    balance_iterate,
    cycle_from_json,
    moment_matrix,
    pairing,
    trace_free,
    trace_norm,
    transform_cycle,
)
from kstab.cli import main
from kstab.laurent import DegenerateLoopError, FactorizationError, LaurentMatrix, LaurentPoly, factorize
from kstab.quadrature import QuadratureError, csum, disc_rule

DATA = Path(__file__).resolve().parents[1] / "data"


def line_cycle():
    return ProjectiveCycle(
        2, [Component(np.array([[1, 0], [0, 0], [0, 1]], dtype=complex))]
    )


def conic_loop():
    return LaurentMatrix.exponent_diagonal([0, 0, 1])


def central_form(form, g):
    """Lowest coefficients of F(adj(g) x), the form of the central fiber in
    the original coordinates, as complex numbers, by the reference routines."""
    _, lowest = _reference_path(form, g)
    return {exps: complex(float(re), float(im)) for exps, (re, im) in lowest.items()}


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestMomentMatrix:
    def test_coordinate_line_closed_form(self):
        res = moment_matrix(line_cycle(), order=32)
        # the second moments over V have trace 1: matrix + 1/n on the diagonal
        assert np.allclose(np.diag(res.matrix).real + 1 / 3, [0.5, 0.0, 0.5], atol=1e-12)
        assert np.allclose(
            np.diag(res.matrix).real, [1 / 6, -1 / 3, 1 / 6], atol=1e-12
        )

    def test_trace_free(self, rng):
        z = rnc3_cycle(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        res = moment_matrix(z, order=48)
        assert abs(np.trace(res.matrix)) < 1e-13
        assert np.allclose(res.matrix, res.matrix.conj().T)

    def test_unitary_equivariance(self, rng):
        # a dense frame with non-orthogonal columns: both sides take the kernel
        z = rnc3_cycle(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
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

    def test_cycle_needs_a_component(self):
        with pytest.raises(ValueError, match="no parametrized components"):
            ProjectiveCycle(2, [])

    def test_memory_flat_in_order(self):
        # the charts are evaluated in blocks of nodes, so quadrupling the
        # node count leaves the peak about where it was
        cycle = image_cycle(RadialMetric(0.1), 64)
        peaks = []
        for order in (48, 96):
            tracemalloc.start()
            try:
                moment_matrix(cycle, order=order)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0]


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


def cofactor_det(rows):
    """Reference determinant: Laplace expansion along the first row."""
    if not rows:
        return LaurentPoly.one()
    return sum(
        ((p if j % 2 == 0 else -p) * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
         for j, p in enumerate(rows[0]) if not p.is_zero),
        LaurentPoly.zero(),
    )


def cofactor_adjugate(g):
    """Reference adjugate: entry (i, j) is (-1)^(i+j) times the minor of g
    without row j and column i."""
    n = g.size
    minor = [[cofactor_det([row[:i] + row[i + 1:] for r, row in enumerate(g.entries) if r != j])
              for j in range(n)] for i in range(n)]
    return LaurentMatrix([[d if (i + j) % 2 == 0 else -d for j, d in enumerate(row)] for i, row in enumerate(minor)])


def _reference_path(form, g, convention="calibrated"):
    """t-order and lowest coefficients {y-exponents: (re, im)} of the full
    expansion of F(adj(g) x) (calibrated) or F(g x) (flipped)."""
    m = cofactor_adjugate(g) if convention == "calibrated" else g
    path = _expand_reference(form.canonical_lift(), m)
    order = min(min(lc) for lc in path.values())
    return order, {mono: lc[order] for mono, lc in path.items() if order in lc}


def _full_span_answer(form, g, convention):
    """Chow weight and lowest coefficients of F(adj(g) x) or F(g x), read off
    the full expansion by the reference routines."""
    order, lowest = _reference_path(form, g, convention)
    N, d, det_ord = g.size - 1, form.degree, cofactor_det(g.entries).ord()
    ch = Fraction(det_ord, N + 1) - Fraction(order, d * N)
    return (ch if convention == "calibrated" else -ch), lowest


def _frame_of_left_factor(form, g, x0):
    """The form x0 of X_0 in the frame of L(0), X_0(L(0) y), divided by the
    lowest coefficient of det g to the power d: the lowest coefficients of
    F(R^(-1) t^(-A) y) when g = L t^A R."""
    l0 = LaurentMatrix([[LaurentPoly({0: v}) for v in row] for row in factorize(g).left.value_at_zero()])
    y0 = _expand_reference(HypersurfaceForm(form.nvars, {e: {0: c} for e, c in x0.items()}), l0)
    det = cofactor_det(g.entries)
    c = det.coefficient(det.ord()) ** form.degree
    return {e: tuple(v / c for v in lc[0]) for e, lc in y0.items()}


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
                    _, y0, _ = chow_module._lowest_terms(form, g, convention)
                    assert y0 == _frame_of_left_factor(form, g, lowest)

    @pytest.mark.parametrize("seed", range(3))
    def test_full_span_matches_plain_expansion(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(5):
            n = rng.randint(2, 3)
            g, form = _ldu_loop(rng, n), _random_form(rng, n, rng.randint(1, 2))
            fac = factorize(g)
            e = fac.exponent_vector()
            m_cal = fac.rinv.scale_columns([-x for x in e])
            for convention, m in (("calibrated", m_cal), ("flipped", fac.left.scale_columns(e))):
                assert transformed_form(form, g, convention).monomials == _expand_reference(form.canonical_lift(), m)

    @pytest.mark.parametrize("n, d, seed", [(4, 3, 0), (4, 4, 1), (5, 2, 2)])
    @pytest.mark.parametrize("real", [False, True])
    def test_every_window_matches_plain_expansion(self, n, d, seed, real):
        # the bench quartic's shape and a five-variable quadric, with the
        # complex and Laurent coefficients of _random_form or their real parts
        rng = random.Random(300 + seed)
        g, form = _ldu_loop(rng, n), _random_form(rng, n, d)
        coeffs = form.monomials.values()
        assert any(c[1] for lc in coeffs for c in lc.values()) and any(len(lc) > 1 for lc in coeffs)
        if real:
            form = HypersurfaceForm.from_dict(n, {e: {t: c[0] for t, c in lc.items()}
                                                  for e, lc in form.monomials.items()})
        fac = factorize(g)
        e = fac.exponent_vector()
        for convention, m in (("calibrated", fac.rinv.scale_columns([-x for x in e])),
                              ("flipped", fac.left.scale_columns(e))):
            lifted, rows, shift, span, _ = chow_module._substitution(form, g, convention)
            full = _expand_reference(lifted, m)
            K = 1
            while True:
                K = min(K, span)
                window = {
                    mono: {t + shift: (re.coefficient(t), im.coefficient(t)) for t in set(re.coeffs) | set(im.coeffs)}
                    for mono, (re, im) in chow_module._window(lifted, rows, K).items()
                }
                below = {mono: {t: c for t, c in lc.items() if t < K + shift} for mono, lc in full.items()}
                assert {mono: lc for mono, lc in window.items() if lc} == {mono: lc for mono, lc in below.items() if lc}
                if K == span:
                    break
                K *= 2
            assert chow_weight(form, g, convention=convention) == _full_span_answer(form, g, convention)[0]

    def test_window_dot_calls(self, monkeypatch):
        # one K = 1 window of a dense quartic in four variables under a dense
        # L t^D U loop: Horner's rule makes 69 dots, one per monomial of a
        # step's result that takes a product; the products of powers
        # l_a^j l_b^k ... made 669
        rng = random.Random(7)
        def entry():
            return LaurentPoly({0: rng.choice([-3, -1, 2]), 1: rng.choice([-2, 1, 3])})

        one, zero = LaurentPoly.one(), LaurentPoly()
        low = LaurentMatrix([[LaurentPoly({0: (1, -1, 2, -2)[i]}) if i == j else entry() if i > j else zero
                              for j in range(4)] for i in range(4)])
        up = LaurentMatrix([[one if i == j else entry() if i < j else zero for j in range(4)] for i in range(4)])
        g = low @ LaurentMatrix.exponent_diagonal([-2, -1, 0, 1]) @ up
        form = HypersurfaceForm.from_dict(4, {e: rng.choice([-5, -2, 1, 3, 4])
                                              for e in itertools.product(range(5), repeat=4) if sum(e) == 4})
        lifted, rows, _, _, _ = chow_module._substitution(form, g, "calibrated")
        calls, real_dot = [], LaurentPoly.dot
        monkeypatch.setattr(LaurentPoly, "dot", staticmethod(lambda *a: calls.append(1) or real_dot(*a)))
        window = chow_module._window(lifted, rows, 1)
        assert 0 < len(calls) <= 100
        assert any(not re.is_zero for re, _ in window.values())

    def test_cancellation_doubles_window(self, monkeypatch):
        # g = t^A R with A = (5, 0), so F = x0 - x1 goes under
        # t^5 R^(-1) t^(-A) = [[1, 0], [1, t^5]] = adj(g): F(adj(g) x) = -t^5 y1,
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
        assert central_form(form, g) == {(0, 1): -1}
        assert chow_weight(form, g, convention="flipped") == _full_span_answer(form, g, "flipped")[0]

    def test_vanishing_form_raises(self):
        # adj of the singular [[1, 1], [1, 1]] kills x0 + x1; the loop has no
        # normal form, so factorize refuses it first
        one = LaurentPoly.one()
        g = LaurentMatrix([[one, one], [one, one]])
        form = HypersurfaceForm.from_dict(2, {(1, 0): 1, (0, 1): 1})
        assert _expand_reference(form, cofactor_adjugate(g)) == {}
        for fn in (chow_weight, transformed_form):
            with pytest.raises(DegenerateLoopError, match="degenerate loop: "):
                fn(form, g)

    def test_sparse_form_coefficient(self, capped_python):
        # the t^(10^9) term lies far beyond the first window, which already
        # holds the answer; storing it densely would take gigabytes
        proc = capped_python(
            "from kstab.chow import HypersurfaceForm, chow_weight\n"
            "from kstab.laurent import LaurentMatrix\n"
            "f = HypersurfaceForm.from_dict(3, {(2, 0, 0): {0: 1, 10**9: 1}, (0, 2, 0): 1, (0, 0, 2): -1})\n"
            "print(chow_weight(f, LaurentMatrix.exponent_diagonal([0, 1, 2])))\n"
        )
        assert proc.returncode == 0, proc.stderr
        form = HypersurfaceForm.from_dict(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
        assert proc.stdout.strip() == str(chow_weight(form, LaurentMatrix.exponent_diagonal([0, 1, 2])))

    def test_sparse_form_full_expansion_refused(self, capped_python):
        # the full expansion of the same form would span 10^9 t-exponents:
        # one ValueError naming the span, not a MemoryError
        proc = capped_python(
            "from kstab.chow import HypersurfaceForm, transformed_form\n"
            "from kstab.laurent import LaurentMatrix\n"
            "f = HypersurfaceForm.from_dict(3, {(2, 0, 0): {0: 1, 10**9: 1}, (0, 2, 0): 1, (0, 0, 2): -1})\n"
            "try:\n"
            "    transformed_form(f, LaurentMatrix.exponent_diagonal([0, 1, 2]))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "t-exponents of F(m y) -4..1000000000 span more than 2^20 = 1048576\n"

    def test_full_expansion_at_the_span_bound(self):
        # under diag(1, t, t^2) the t-exponents of F(m y) run from -4 to the
        # top exponent of the form: a span of exactly MAX_SPAN is expanded,
        # one more is refused
        g = LaurentMatrix.exponent_diagonal([0, 1, 2])
        for top, ok in ((laurent_module.MAX_SPAN - 4, True), (laurent_module.MAX_SPAN - 3, False)):
            form = HypersurfaceForm.from_dict(3, {(2, 0, 0): {0: 1, top: 1}, (0, 2, 0): 1, (0, 0, 2): -1})
            if ok:
                assert transformed_form(form, g).monomials[(2, 0, 0)] == {0: (1, 0), top: (1, 0)}
            else:
                with pytest.raises(ValueError, match="span more than 2\\^20"):
                    transformed_form(form, g)

    def test_does_not_expand_the_full_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("full expansion requested")

        expected = chow_weight(CONIC_FORM, conic_loop())
        monkeypatch.setattr(chow_module, "transformed_form", refuse)
        assert chow_weight(CONIC_FORM, conic_loop()) == expected == Fraction(1, 12)
        assert set(chow_module._lowest_terms(CONIC_FORM, conic_loop(), "calibrated")[1]) == {(1, 0, 1)}
        assert len(central_fiber_cycle(CONIC_FORM, conic_loop()).components) == 2

    def test_one_factorization_and_no_other_det(self, monkeypatch):
        calls, inside = [], []
        real_factorize, real_det = chow_module.factorize, LaurentMatrix.det

        def spy_factorize(g):
            calls.append("factorize")
            inside.append(True)
            try:
                return real_factorize(g)
            finally:
                inside.pop()

        def spy_det(self):
            calls.append("det" if inside else "det outside factorize")
            return real_det(self)

        monkeypatch.setattr(chow_module, "factorize", spy_factorize)
        monkeypatch.setattr(LaurentMatrix, "det", spy_det)
        g = _torus_loops(random.Random(1400), 1)[0]
        for fn in (chow_weight, central_fiber_cycle):
            calls.clear()
            fn(CONIC_FORM, g)
            assert calls == ["factorize"], fn.__name__


def _spy_assemble(monkeypatch):
    """List that records every ``laurent._assemble`` call."""
    calls, real = [], laurent_module._assemble
    monkeypatch.setattr(laurent_module, "_assemble", lambda *a: calls.append(1) or real(*a))
    return calls


class TestFactorizationKept:
    """factorize keeps its verified result on the loop, so the chow calls on
    one loop run one echelon and one exact check between them."""

    def test_chow_calls_assemble_once_per_loop(self, monkeypatch):
        loops = [conic_loop(), *_torus_loops(random.Random(1400), 2)]
        calls = _spy_assemble(monkeypatch)
        for g in loops:
            g = LaurentMatrix(g.entries)  # a fresh loop: nothing kept yet
            calls.clear()
            ch = chow_weight(CONIC_FORM, g)
            fiber = central_fiber_cycle(CONIC_FORM, g)
            check_chow_inequality(g, fiber, ch=ch)
            assert factorize(g) is factorize(g)
            assert len(calls) == 1

    def test_chow_command_assembles_once(self, monkeypatch, runner):
        calls = _spy_assemble(monkeypatch)
        res = runner.invoke(main, ["chow", "--input", str(DATA / "conic_form.json"),
                                   "--loop", str(DATA / "conic_loop.json")])
        assert res.exit_code == 0 and json.loads(res.output)["inequality_satisfied"]
        assert len(calls) == 1

    def test_failures_are_not_kept(self, monkeypatch):
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        g = LaurentMatrix([[one, one, zero], [one, one, zero], [zero, zero, one]])
        for call in (factorize, lambda g: chow_weight(CONIC_FORM, g)) * 2:
            with pytest.raises(DegenerateLoopError):
                call(g)
        g = conic_loop()
        monkeypatch.setattr(laurent_module, "_assemble", lambda *a: None)
        for _ in range(2):
            with pytest.raises(FactorizationError):
                factorize(g)
        monkeypatch.undo()
        assert factorize(g).weights == (1, 0, 0)


def _complex_conic(rng):
    """A plane conic with complex rational coefficients on all six monomials."""
    def value():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    mono = {e: (value(), value()) for e in itertools.product(range(3), repeat=3) if sum(e) == 2}
    mono[(2, 0, 0)] = (1, 1)
    return HypersurfaceForm.from_dict(3, mono)


def _torus_loops(rng, count):
    """L t^D U loops whose weights are not all equal and with L(0) != I in
    their normal form."""
    loops = []
    while len(loops) < count:
        g = _ldu_loop(rng, 3)
        fac = factorize(g)
        if len(set(fac.weights)) > 1 and fac.left.value_at_zero() != np.eye(3).tolist():
            loops.append(g)
    return loops


def _off_central_form(form, g, fiber):
    """Largest |F_0(x(s))| relative to the sum of F_0's coefficient moduli
    times max |x_a(s)|^2, over the fiber's components at seven parameter
    values, with F_0 the float central form."""
    f0 = central_form(form, g)
    scale = sum(abs(c) for c in f0.values())
    worst = 0.0
    for comp in fiber.components:
        for s in 0.3 + 0.9 * np.exp(2j * np.pi * np.arange(7) / 7):
            x = comp.coeffs @ s ** np.arange(comp.coeffs.shape[1])
            value = sum(c * np.prod(x ** np.array(e)) for e, c in f0.items())
            worst = max(worst, abs(value) / (scale * np.max(np.abs(x)) ** 2))
    return worst


class TestTorusFiber:
    """The central fiber decomposed along the loop's torus in the frame of
    L(0) and mapped back."""

    def check(self, form, g):
        fiber = central_fiber_cycle(form, g)
        assert sum(c.multiplicity * c.degree for c in fiber.components) == 2
        assert _off_central_form(form, g, fiber) <= 1e-9
        assert check_chow_inequality(g, fiber, chow_weight(form, g), order=48).quad_error <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_ldu_loops(self, seed):
        rng = random.Random(1300 + seed)
        for g in _torus_loops(rng, 5):
            self.check(_complex_conic(rng), g)

    @pytest.mark.parametrize("seed", range(4))
    def test_complex_conics_under_admissible_loops(self, seed):
        rng = random.Random(1310 + seed)
        for _ in range(5):
            self.check(_complex_conic(rng), random_admissible_loop(rng)[0])

    def test_double_line_is_exact(self):
        square = HypersurfaceForm.from_dict(3, {(2, 0, 0): 1, (1, 1, 0): (0, 2), (0, 2, 0): -1})
        fiber = central_fiber_cycle(square, LaurentMatrix.identity(3))
        assert [(c.degree, c.multiplicity) for c in fiber.components] == [(1, 2)]
        self.check(square, LaurentMatrix.identity(3))

    def test_trivial_degeneration_of_a_non_toric_conic(self):
        form = HypersurfaceForm.from_dict(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 0): 1})
        with pytest.raises(ValueError, match="not supported on a lattice segment"):
            central_fiber_cycle(form, LaurentMatrix.identity(3))

    def test_draws_no_random_numbers(self, monkeypatch):
        class Refuse:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.random.{name} used")

        monkeypatch.setattr(np, "random", Refuse())
        for exps in ([0, 0, 0], [0, 0, 1], [0, 1, 0]):  # smooth conic, line pair, double line
            central_fiber_cycle(CONIC_FORM, LaurentMatrix.exponent_diagonal(exps))


class TestCentralFiber:
    def test_conic_limit_is_line_pair(self):
        fiber = central_fiber_cycle(CONIC_FORM, conic_loop())
        assert len(fiber.components) == 2
        assert fiber.total_degree == 2
        mono = central_form(CONIC_FORM, conic_loop())
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
        chk = check_chow_inequality(g, fiber, chow_weight(CONIC_FORM, g), order=48)
        assert chk.satisfied
        assert abs(chk.slack) < 1e-9
        assert chk.exponents == (0, 0, -1)

    def test_identity_equality(self):
        g = LaurentMatrix.identity(3)
        fiber = central_fiber_cycle(CONIC_FORM, g)
        chk = check_chow_inequality(g, fiber, chow_weight(CONIC_FORM, g), order=48)
        assert chk.satisfied and chk.chow == 0

    def test_perturbed_suite_never_violates(self):
        rng = random.Random(1234)
        strict = 0
        for _ in range(20):
            g, _ = random_admissible_loop(rng)
            fiber = central_fiber_cycle(CONIC_FORM, g)
            chk = check_chow_inequality(g, fiber, chow_weight(CONIC_FORM, g), order=40)
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
        res = balance_iterate(_demo_line_pair(), max_steps=40, tol=1e-10, order=24)
        assert not res.converged
        assert len(res.residuals) >= 1
        assert res.note.startswith("iteration broke down: cycle mass ")


# -- reference: the plain balance loop, with charts re-evaluated at every step ----


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
        for c in (comp.coeffs, comp.coeffs[:, comp.degree::-1]):
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
    """(cycle, residuals, converged, steps, transform, note) of the plain loop
    z -> (n1 raw)^(-1/2) z: transform the cycle and re-evaluate its charts at
    every step, and stop when the mass leaves the degree."""
    n1, degree = cycle.ambient_dim + 1, cycle.total_degree
    current, g_total, residuals = cycle, np.eye(n1, dtype=complex), []
    for step in range(max_steps + 1):
        try:
            raw, mass = _reference_cycle_raw(current, order)
            if abs(mass - degree) > 1e-6 * degree:
                raise QuadratureError(f"cycle mass {mass:.9g} does not match degree {degree}")
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


def _crossing_lines():
    return cycle_from_json(json.loads((DATA / "crossing_lines_cycle.json").read_text()))


def _demo_line_pair():
    """The distorted line pair of demos/04_balanced_embedding.py."""
    lines = ProjectiveCycle(2, [
        Component(np.array([[0, 0], [1, 0], [0, 1]], dtype=complex)),
        Component(np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)),
    ])
    return transform_cycle(lines, np.diag([3.0, 1.0, 1.0]))


def _assert_balanced(cycle, res, tol=1e-8, order=32):
    """An independent moment check of ``res.cycle``, and each returned
    component a multiple of ``res.transform`` times its input component."""
    assert res.converged and res.residuals[-1] <= tol
    assert res.steps == len(res.residuals) - 1
    assert trace_norm(moment_matrix(res.cycle, order=order, tol=tol).matrix) <= 2 * tol
    assert abs(np.linalg.eigvalsh(res.transform).max() - 1) < 1e-12
    for c, c0 in zip(res.cycle.components, cycle.components):
        assert c.multiplicity == c0.multiplicity
        image = res.transform @ c0.coeffs
        scale = np.vdot(c.coeffs, image) / np.vdot(c.coeffs, c.coeffs)
        assert np.max(np.abs(image - scale * c.coeffs)) < 1e-12 * np.max(np.abs(image))


class TestBalanceKernel:
    """Balanced results checked on their own: balanced points are not unique
    (for rational normal curves they form an SL(2) orbit), so the path that
    reaches one is not pinned."""

    @pytest.mark.parametrize("name", sorted(_KERNEL_CASES))
    def test_matches_reference_loop(self, name):
        # the plain loop's outcome, in fewer steps
        make, options = _KERNEL_CASES[name]
        cycle = make()
        res = balance_iterate(cycle, **options)
        _, _, converged, steps, _, note = _reference_balance(cycle, **options)
        assert converged and res.converged and res.note == note == ""
        assert res.steps < steps
        _assert_balanced(cycle, res, **options)

    @pytest.mark.parametrize("k", [4, 8, 16, 32])
    def test_bump_image_balances_to_the_toric_point(self, k):
        # a C*-invariant curve s -> (C_jj s^j) is balanced exactly when
        # |C_jj|^2 = binom(k, j) a b^j: the log is affine in j
        cycle = _bump_image(k)
        res = balance_iterate(cycle, max_steps=500, tol=1e-8, order=32)
        assert res.converged and res.steps <= 500
        _assert_balanced(cycle, res)
        c = res.cycle.components[0].coeffs
        j = np.arange(k + 1)
        logs = np.log(np.abs(np.diagonal(c)) ** 2) - np.log([math.comb(k, i) for i in j])
        line = np.polyval(np.polyfit(j, logs, 1), j)
        assert np.max(np.abs(logs - line)) < 1e-6
        assert np.max(np.abs(c - np.diag(np.diagonal(c)))) < 1e-12 * np.max(np.abs(c))

    def test_at_most_two_evaluations_per_step(self, monkeypatch):
        calls = []
        real = cycles_module._cycle_raw
        monkeypatch.setattr(cycles_module, "_cycle_raw", lambda *a: calls.append(1) or real(*a))
        bump_images = [((lambda k=k: _bump_image(k)), {}) for k in (16, 32)]
        for make, options in [*_KERNEL_CASES.values(), *bump_images]:
            calls.clear()
            res = balance_iterate(make(), **options)
            assert res.converged and res.steps + 1 <= len(calls) <= 2 * res.steps + 1

    @pytest.mark.parametrize("make, options", [
        (_crossing_lines, {}),
        (_crossing_lines, {"max_steps": 15}),
        (_crossing_lines, {"order": 16, "tol": 1e-6}),
        (_demo_line_pair, {}),
    ], ids=["crossing", "crossing-15", "crossing-16", "demo"])
    def test_unstable_line_pairs_never_converge(self, make, options):
        res = balance_iterate(make(), **options)
        assert not res.converged
        assert res.note.startswith("iteration broke down: cycle mass ")
        assert res.note.endswith(" does not match degree 2")

    def test_crossing_lines_break_down_like_the_reference(self):
        # the plain loop leaves mass 2 at its third step; the mixed trials
        # before it are rejected, so the accepted iterates are the plain ones
        cycle = _crossing_lines()
        res = balance_iterate(cycle)
        _, ref_res, converged, steps, _, ref_note = _reference_balance(cycle)
        assert not res.converged and not converged
        assert res.note == ref_note
        assert ref_note.startswith("iteration broke down: cycle mass ")
        assert ref_note.endswith(" does not match degree 2")
        assert len(res.residuals) == len(ref_res) == steps == res.steps + 1 == 3
        assert np.max(np.abs(np.array(res.residuals) - ref_res)) < 1e-12

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

    def test_monomial_iterates_stay_diagonal_without_kernels(self, monkeypatch):
        # every iterate of a diagonal monomial curve is diagonal, so each
        # evaluation takes the closed form and no off-diagonal roundoff appears
        calls = []
        real = cycles_module._kernel
        monkeypatch.setattr(cycles_module, "_kernel", lambda d, s: calls.append(d) or real(d, s))
        cycles = [_bump_image(k) for k in (4, 8, 16)] + [_KERNEL_CASES["rnc3_distorted"][0]()]
        for cycle in cycles:
            res = balance_iterate(cycle)
            assert res.converged and res.steps > 0
            for m in (res.cycle.components[0].coeffs, res.transform):
                assert np.array_equal(m, np.diag(np.diagonal(m)))
        assert calls == []

    def test_legendre_rule_computed_once_per_order(self, monkeypatch):
        orders = []
        real = quadrature_module.leggauss
        monkeypatch.setattr(quadrature_module, "leggauss", lambda n: orders.append(n) or real(n))
        quadrature_module._legendre.cache_clear()
        try:
            balance_iterate(_two_conics(), max_steps=5, order=20)
            balance_iterate(rnc3_cycle(np.diag([2.0, 1.0, 1.0, 1.0])), order=20)
            moment_matrix(line_cycle(), order=20)
            moment_matrix(line_cycle(), order=20)
        finally:
            quadrature_module._legendre.cache_clear()
        assert sorted(orders) == [20, 40]


def _monomial(rows, degree=None, multiplicity=1):
    """A component with row a equal to c_a s^(e_a), from ``rows`` of
    (c_a, e_a) pairs or None for a zero row."""
    degree = max(e for r in rows if r is not None for _, e in [r]) if degree is None else degree
    coeffs = np.zeros((len(rows), degree + 1), dtype=complex)
    for a, r in enumerate(rows):
        if r is not None:
            coeffs[a, r[1]] = r[0]
    return Component(coeffs, multiplicity)


def _seeded_monomial_cycle(seed):
    """One or two monomial components in P^(n-1), each with an e = 0 row and
    an e = degree row (no base point), some zero rows and repeated
    exponents, multiplicities 1..3."""
    rng = np.random.default_rng(seed)
    n1 = int(rng.integers(2, 7))
    comps = []
    for _ in range(int(rng.integers(1, 3))):
        degree = int(rng.integers(1, 25))
        exps = [0, degree, *rng.integers(0, degree + 1, size=n1 - 2)]
        rows = [None if a > 1 and rng.random() < 0.2 else (complex(*rng.normal(size=2)), int(e))
                for a, e in enumerate(exps)]
        comps.append(_monomial([rows[a] for a in rng.permutation(n1)], degree, int(rng.integers(1, 4))))
    return ProjectiveCycle(n1 - 1, comps)


def _moment_outcome(cycle, order, tol=1e-8):
    """moment_matrix's (matrix, volume, quad_error), or its QuadratureError
    message."""
    try:
        res = moment_matrix(cycle, order=order, tol=tol)
    except QuadratureError as exc:
        return str(exc)
    return res.matrix, res.volume, res.quad_error


def _assert_matches_reference(cycle, order):
    # raw / V has trace one, so the matrix and quad_error are compared on
    # that scale and the volume relative to itself
    matrix, volume, quad_error = _reference_moment(cycle, order)
    res = moment_matrix(cycle, order=order, tol=np.inf)
    assert np.max(np.abs(res.matrix - matrix)) <= 1e-12
    assert abs(res.volume - volume) <= 1e-12 * volume
    assert abs(res.quad_error - quad_error) <= 1e-12 * max(1.0, quad_error)


class TestMonomialClosedForm:
    """Components whose rows are monomials take the disc rule's angular sum
    in closed form: the same rule as the kernel path, aliasing included."""

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("order", [4, 5, 8])
    def test_seeded_cycles_match_reference(self, seed, order):
        _assert_matches_reference(_seeded_monomial_cycle(seed), order)

    def test_aliasing_matches_the_discrete_rule(self):
        # at order 4 the rule has m = 9 angles, and e_1 - e_0 = 9 aliases
        # s^9 conj(1) onto a constant: the raw (0, 1) entry is not zero
        cycle = ProjectiveCycle(2, [_monomial([(1.0, 0), (0.5j, 9), (2.0, 10)])])
        ref, _ = _reference_cycle_raw(cycle, 4)
        raw, _ = cycles_module._cycle_raw(cycle, 4)
        assert abs(ref[0, 1]) > 1e-3 and abs(ref[0, 2]) < 1e-12
        assert np.max(np.abs(raw - ref)) < 1e-14
        assert moment_matrix(cycle, order=4, tol=np.inf).quad_error > 1e-4
        _assert_matches_reference(cycle, 4)

    def test_repeated_exponent_gives_off_diagonal_entries(self):
        cycle = ProjectiveCycle(3, [_monomial([(1.0, 0), (2.0, 2), (1 + 1j, 2), (1.0, 3)])])
        res = moment_matrix(cycle, order=24)
        assert abs(res.matrix[1, 2]) > 1e-3
        _assert_matches_reference(cycle, 24)

    def test_zero_rows_and_multiplicity(self):
        comp = _monomial([(1.0, 0), None, (0.3 - 2j, 4), None, (1.5, 7)], multiplicity=3)
        cycle = ProjectiveCycle(4, [comp])
        assert moment_matrix(cycle, order=24).volume == pytest.approx(21, rel=1e-12)
        raw, _ = cycles_module._cycle_raw(cycle, 24)
        assert np.all(raw[[1, 3]] == 0) and np.all(raw[:, [1, 3]] == 0)
        _assert_matches_reference(cycle, 24)

    def test_ragged_and_padded_coefficients(self):
        rows = [[[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.5, -1.0]], [[0.0, 0.0]] * 5 + [[2.0, 0.0]]]
        padded = [row + [[0.0, 0.0]] * 3 for row in rows]
        results = []
        for coeffs in (rows, padded):
            cycle = cycle_from_json({"ambient": 2, "components": [{"coeffs": coeffs, "multiplicity": 2}]})
            _assert_matches_reference(cycle, 16)
            results.append(moment_matrix(cycle, order=16))
        assert np.array_equal(results[0].matrix, results[1].matrix)
        assert results[0].volume == results[1].volume

    @pytest.mark.parametrize("order", [8, 24])
    def test_mixed_cycle(self, order):
        # one monomial component (the standard conic) and one dense one
        assert [np.count_nonzero(c.coeffs, axis=1).max() for c in _two_conics().components] == [1, 3]
        dense_line = Component(np.array([[1, 1], [0.5j, 0], [0, 1]], dtype=complex))
        cycle = ProjectiveCycle(2, [_monomial([(1.0, 0), (0.5, 4), (1j, 9)]), dense_line])
        for c in (_two_conics(), cycle):
            _assert_matches_reference(c, order)

    def test_image_cycles_match_reference(self):
        for k in (16, 32):
            _assert_matches_reference(_bump_image(k), 48)

    @pytest.mark.parametrize("name, comp", [
        ("base point (s, s^2)", _monomial([(1.0, 1), (1.0, 2)])),
        ("one row s", _monomial([(1.0, 1), None])),
        ("common factor s", _monomial([(1.0, 1), None, (1.0, 1)])),
        ("underflow (s^200, s^300)", _monomial([(1.0, 200), (1.0, 300)])),
    ])
    @pytest.mark.parametrize("order", [24, 48])
    def test_errors_match_the_reference_path(self, monkeypatch, name, comp, order):
        cycle = ProjectiveCycle(len(comp.coeffs) - 1, [comp])
        closed = _moment_outcome(cycle, order)
        monkeypatch.setattr(cycles_module, "_cycle_raw", _reference_cycle_raw)
        assert isinstance(closed, str) and closed == _moment_outcome(cycle, order)

    def test_one_row_mass_is_exactly_zero(self, monkeypatch):
        # Lagrange's identity gives the density of a one-row curve as an
        # exact zero; the kernel's |p'|^2 |p|^2 - |<p', p>|^2 leaves roundoff
        cycle = ProjectiveCycle(2, [_monomial([None, (0.7 + 2.3j, 3), None])])
        closed = _moment_outcome(cycle, 24)
        assert closed == "cycle mass 0 does not match nominal degree 3; parametrization may have base points"
        monkeypatch.setattr(cycles_module, "_cycle_raw", _reference_cycle_raw)
        reference = _moment_outcome(cycle, 24)
        assert reference.startswith("cycle mass ") and reference.endswith(closed[len("cycle mass 0"):])
        assert abs(float(reference.split()[2])) < 1e-14

    def test_dense_one_row_mass_is_nonnegative(self, monkeypatch):
        # the kernel's density |p' - (<p', p> / |p|^2) p|^2 / |p|^2 does not
        # cancel: the one-row dense curve (0, 1.7 + 0.3 s) has mass 0 up to
        # roundoff of either sign in p' - p'
        cycle = ProjectiveCycle(1, [Component(np.array([[0, 0], [1.7, 0.3]], dtype=complex))])
        calls = _spy_kernel(monkeypatch)
        for order in (24, 48, 96):
            _, mass = cycles_module._cycle_raw(cycle, order)
            assert 0.0 <= mass < 1e-25
        assert calls

    def test_kernel_only_for_dense_components(self, monkeypatch):
        calls = _spy_kernel(monkeypatch)
        shipped = [cycle_from_json(json.loads((DATA / f"{name}.json").read_text()))
                   for name in ("line_cycle", "rnc3_cycle")]
        for cycle in [_bump_image(64), *shipped]:
            moment_matrix(cycle)
        assert calls == []
        moment_matrix(_two_conics(), order=24)
        # the moved conic only: 2 blocks of 24 * 49 nodes, 5 of 48 * 97
        assert calls == [2] * 7

    def test_memory_flat_in_order_for_dense_cycles(self, monkeypatch, rng):
        # a non-unitary frame makes every row of an image cycle dense and its
        # columns non-orthogonal: the kernel path, whose charts are evaluated
        # in blocks of nodes
        frame = np.diag(np.linspace(1.0, 2.0, 65)) @ random_unitary(rng, 65)
        cycle = transform_cycle(image_cycle(RadialMetric(0.1), 64), frame)
        assert np.count_nonzero(cycle.components[0].coeffs, axis=1).min() > 1
        calls = _spy_kernel(monkeypatch)
        peaks = []
        for order in (48, 96):
            tracemalloc.start()
            try:
                moment_matrix(cycle, order=order)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0]
        assert calls


def _spy_kernel(monkeypatch):
    """List that records the degree of every ``cycles._kernel`` call."""
    calls, real = [], cycles_module._kernel
    monkeypatch.setattr(cycles_module, "_kernel", lambda d, s: calls.append(d) or real(d, s))
    return calls


def _unitary_image(seed):
    """A seeded unitary image of a monomial curve in P^(n-1) of degree 1..6
    (by seed), with zero columns (unused exponents) and repeated exponents."""
    rng = np.random.default_rng(seed)
    degree = 1 + seed % 6
    n1 = int(rng.integers(3, 7))
    used = rng.choice(np.arange(1, degree), size=min(degree - 1, 1 + seed % 2), replace=False)
    exps = [0, degree, *rng.choice([0, degree, *used], size=n1 - 2)]
    comp = _monomial([(complex(*rng.normal(size=2)), int(e)) for e in exps], degree, 1 + seed % 3)
    return transform_cycle(ProjectiveCycle(n1 - 1, [comp]), random_unitary(rng, n1))


class TestOrthogonalColumns:
    """A dense component with orthogonal coefficient columns is a unitary
    image of a monomial curve and takes its closed form, not the kernel."""

    @pytest.mark.parametrize("seed", range(18))
    @pytest.mark.parametrize("order", [4, 24, 48])
    def test_unitary_images_match_reference(self, monkeypatch, seed, order):
        cycle = _unitary_image(seed)
        coeffs = cycle.components[0].coeffs
        assert np.count_nonzero(coeffs, axis=1).max() > 1
        if seed % 6 > 1:  # degree >= 3: some exponent below the degree is unused
            assert np.any(np.all(coeffs == 0, axis=0))
        calls = _spy_kernel(monkeypatch)
        _assert_matches_reference(cycle, order)
        assert calls == []

    def test_nearly_orthogonal_columns_take_the_kernel(self, monkeypatch):
        # columns 1e-9 from orthogonal are far outside roundoff
        u = random_unitary(np.random.default_rng(7), 3)
        coeffs = np.stack([u[:, 0], u[:, 1] + 1e-9 * u[:, 0]], axis=1)
        cycle = ProjectiveCycle(2, [Component(coeffs)])
        calls = _spy_kernel(monkeypatch)
        _assert_matches_reference(cycle, 24)
        assert calls and set(calls) == {1}

    def test_fibre_lines_skip_the_kernel(self, monkeypatch):
        # the central fibre of a conic under a torus loop: QR-orthonormal lines
        g = _torus_loops(random.Random(1400), 1)[0]
        fiber = central_fiber_cycle(CONIC_FORM, g)
        lines = ProjectiveCycle(2, [c for c in fiber.components if c.degree == 1])
        assert lines.components
        calls = _spy_kernel(monkeypatch)
        _assert_matches_reference(lines, 48)
        assert calls == []


class TestJsonInterfaces:
    def test_zero_padding_changes_nothing(self):
        # trailing zero coefficients, ragged or padded past the degree, are
        # the same curve: same moment matrix, same balance iterates
        obj = json.loads((DATA / "rnc3_distorted_cycle.json").read_text())
        rows = obj["components"][0]["coeffs"]
        ragged = [row[:max(i for i, c in enumerate(row) if c != [0.0, 0.0]) + 1] for row in rows]
        padded = [row + [[0.0, 0.0]] * 2 for row in rows]
        assert {len(r) for r in ragged} == {1, 2, 3, 4}
        runs = []
        for coeffs in (rows, ragged, padded):
            cycle = cycle_from_json({"ambient": 3, "components": [{"coeffs": coeffs}]})
            res = balance_iterate(cycle)
            runs.append((moment_matrix(cycle).matrix, res.steps, res.residuals))
        for matrix, steps, residuals in runs[1:]:
            assert np.array_equal(matrix, runs[0][0])
            assert steps == runs[0][1] and residuals == runs[0][2]
        assert runs[0][1] > 1

    def test_form_parse(self):
        f = form_from_json({"form": {"1,0,1": [1, 0], "0,2,0": [-1, 0]}})
        assert f.degree == 2 and f.nvars == 3

    def test_form_pair_is_read_exactly(self):
        # an [re, im] pair reads "p/q" as written and a float as its binary
        # value, as a plain number does
        pair = form_from_json({"form": {"1,0": ["1/1000000000001", "0"], "0,1": [0.1, 0]}})
        plain = form_from_json({"form": {"1,0": "1/1000000000001", "0,1": 0.1}})
        assert pair.monomials == plain.monomials
        assert pair.monomials[(1, 0)] == {0: (Fraction(1, 10**12 + 1), 0)}
        assert pair.monomials[(0, 1)] == {0: (Fraction(3602879701896397, 2**55), 0)}
