"""Cross-module identities tying the three computational routes together.

The k = 1 Chow number computed from exact weight sums must equal the Chow
weight computed from pole orders of the transformed-form path (with the
duality generators = minus loop exponents), and for plane conics both must
match the quadrature pairing of the central fiber.  The density-of-states
moment pairing must match the cycle-side quadrature at the embedded image.
"""

from fractions import Fraction

import numpy as np
import pytest

from kstab.bergman import RadialMetric, image_cycle, moment_from_bergman
from kstab.chow import (
    HypersurfaceForm,
    central_fiber_cycle,
    check_chow_inequality,
    chow_weight,
)
from kstab.cycles import moment_matrix
from kstab.laurent import LaurentMatrix
from kstab.weights import Geometry, WeightSystem, chow_k, tau_poly

CONIC = HypersurfaceForm.from_dict(3, {(1, 0, 1): 1, (0, 2, 0): -1})
QUADRIC = HypersurfaceForm.from_dict(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
CUBIC = HypersurfaceForm.from_dict(3, {(2, 0, 1): 1, (0, 3, 0): -1, (1, 1, 1): 2})


def initial_weight(form, gens):
    return min(sum(e * w for e, w in zip(m, gens)) for m in form.monomials)


def weight_system(form, dim, gens):
    return WeightSystem(
        dim, gens, Geometry("hypersurface", form.degree, initial_weight(form, gens))
    )


class TestPoleOrdersMatchWeightSums:
    @pytest.mark.parametrize(
        "gens,expected",
        [
            ((0, 0, -1), Fraction(1, 12)),
            ((0, -1, 0), Fraction(1, 3)),
            ((0, -1, -2), Fraction(0)),  # the conic is fixed by this subgroup
            ((2, 0, -2), Fraction(0)),
        ],
    )
    def test_plane_conics(self, gens, expected):
        ws = weight_system(CONIC, 1, gens)
        loop = LaurentMatrix.exponent_diagonal([-w for w in gens])
        wk = chow_k(tau_poly(ws), 1)
        assert wk == chow_weight(CONIC, loop) == expected

    @pytest.mark.parametrize(
        "gens,expected",
        [
            ((0, 0, 0, -1), Fraction(1, 12)),
            ((0, -1, 0, -2), Fraction(1, 12)),
            ((0, 0, -1, -1), Fraction(0)),
            ((1, 0, 0, -1), Fraction(0)),
        ],
    )
    def test_quadric_surfaces(self, gens, expected):
        ws = weight_system(QUADRIC, 2, gens)
        loop = LaurentMatrix.exponent_diagonal([-w for w in gens])
        wk = chow_k(tau_poly(ws), 1)
        assert wk == chow_weight(QUADRIC, loop) == expected

    @pytest.mark.parametrize(
        "gens,expected",
        [
            ((0, 0, -1), Fraction(0)),
            ((2, 0, 1), Fraction(1, 2)),
            ((0, -1, -3), Fraction(0)),
        ],
    )
    def test_plane_cubics(self, gens, expected):
        ws = weight_system(CUBIC, 1, gens)
        loop = LaurentMatrix.exponent_diagonal([-w for w in gens])
        wk = chow_k(tau_poly(ws), 1)
        assert wk == chow_weight(CUBIC, loop) == expected

    def test_plane_quartic_geometric_level_one(self):
        """For degree > dim + 2 the Hilbert polynomial differs from the
        actual section count at k = 1; chow_k reads the level's own count
        there, so it agrees with the pole route and with the level-1 Chow
        number built from the level-1 data by hand."""
        from kstab.weights import I_coefficient

        gens = (0, 1, 3)
        loop = LaurentMatrix.exponent_diagonal([-w for w in gens])
        for monomials, expected in [
            ({(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}, Fraction(13, 24)),
            ({(4, 1, 0): 1, (0, 5, 0): 1, (0, 0, 5): 1}, Fraction(17, 30)),
        ]:
            form = HypersurfaceForm.from_dict(3, monomials)
            tau = tau_poly(weight_system(form, 1, gens))
            geometric = Fraction(-sum(gens), 3) - I_coefficient(tau) / tau.volume
            assert chow_k(tau, 1) == geometric == chow_weight(form, loop) == expected


class TestQuadratureClosesTheTriangle:
    @pytest.mark.parametrize("gens", [(0, 0, -1), (0, -1, 0), (0, -1, -2)])
    def test_conic_pairing_matches_both(self, gens):
        ws = weight_system(CONIC, 1, gens)
        loop = LaurentMatrix.exponent_diagonal([-w for w in gens])
        fiber = central_fiber_cycle(CONIC, loop)
        chk = check_chow_inequality(loop, fiber, chow_k(tau_poly(ws), 1), order=48)
        assert chk.exponents == gens  # the section side: minus the loop exponents
        assert abs(chk.slack) < 1e-8


class TestBergmanMatchesCycles:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_moment_entries(self, k):
        metric = RadialMetric(0.1)
        res = moment_matrix(image_cycle(metric, k), order=48)
        for i in range(k + 1):
            a = np.eye(k + 1)[i]
            lhs = moment_from_bergman(metric, k, a) - 1.0 / (k + 1)
            assert abs(lhs - res.matrix[i, i].real) < 1e-6
