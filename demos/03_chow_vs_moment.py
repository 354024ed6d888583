"""Chow weights by pole orders versus moment pairings by quadrature.

Two independent routes to the same number: the exact pole-order
computation on the coefficient path of the moving hypersurface, and the
quadrature pairing of the central fiber's moment matrix with the loop's
section diagonal.  They agree exactly for exponent loops, and the pole
route is bounded by the pairing for perturbed loops.
"""

import numpy as np

from kstab.chow import (
    HypersurfaceForm,
    central_fiber_cycle,
    check_chow_inequality,
    chow_weight,
)
from kstab.cycles import moment_matrix, trace_norm
from kstab.laurent import LaurentMatrix, LaurentPoly, multiply

F = HypersurfaceForm.from_dict(3, {(1, 0, 1): 1, (0, 2, 0): -1})  # xz - y^2
print("hypersurface: xz - y^2 in the projective plane")

print()
print("=== the equivariant equality ===")
g = LaurentMatrix.exponent_diagonal([0, 0, 1])
ch = chow_weight(F, g)
fiber = central_fiber_cycle(F, g)
chk = check_chow_inequality(g, fiber, ch, order=48)
print("loop diag(1, 1, t): central fiber is the line pair {xz = 0}")
print(f"chow weight (exact)    : {ch}")
print(f"moment pairing (quad)  : {chk.pairing:.12f}")
print(f"difference             : {abs(chk.slack):.2e}")
print(f"quadrature error est   : {chk.quad_error:.2e}")

print()
print("=== perturbed loops: inequality, sometimes strict ===")
one, zero = LaurentPoly({0: 1}), LaurentPoly({})
cases = [
    ((1, 0, -1), (1, 0, {0: 1})),        # constant entry: fiber unchanged
    ((2, 1, -1), (2, 0, {1: 2, 2: -2})), # entry vanishing at 0: fiber moves
    ((2, 0, -2), (2, 1, {0: 2, 1: 2})),
]
for a, (i, j, entry) in cases:
    r = [[one if p == q else zero for q in range(3)] for p in range(3)]
    r[i][j] = LaurentPoly(entry)
    g = multiply(LaurentMatrix.exponent_diagonal(list(a)), LaurentMatrix(r))
    fiber = central_fiber_cycle(F, g)
    chk = check_chow_inequality(g, fiber, chow_weight(F, g))
    tag = "strict" if chk.slack > 1e-6 else "equality"
    print(
        f"A = {a}, R[{i}][{j}] = {str(entry):<15}: chow = {str(chk.chow):>5}, "
        f"pairing = {chk.pairing:+.6f}, slack = {chk.slack:+.2e} ({tag})"
    )

print()
print("=== moment matrix of a coordinate line ===")
from kstab.cycles import Component, ProjectiveCycle

line = ProjectiveCycle(2, [Component(np.array([[1, 0], [0, 0], [0, 1]], dtype=complex))])
m = moment_matrix(line, order=32).matrix
print(np.round(m.real, 6))
print("trace norm:", trace_norm(m))
