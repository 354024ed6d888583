"""Driving a projective curve to its balanced position.

The iteration is Donaldson's map on Hermitian metrics of the homogeneous
coordinates, accelerated by Anderson mixing.  For a stable cycle (the
rational normal curve) the moment matrix is driven to zero in a few steps;
for an unstable one (a line pair) the orbit degenerates, the quadrature
loses the cycle's mass, and the breakdown is reported, not raised.
"""

import numpy as np

from kstab.cycles import (
    Component,
    ProjectiveCycle,
    balance_iterate,
    transform_cycle,
)


def rnc3():
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0] = 1.0
    c[1, 1] = np.sqrt(3)
    c[2, 2] = np.sqrt(3)
    c[3, 3] = 1.0
    return ProjectiveCycle(3, [Component(c)])


print("=== distorted rational normal curve of degree 3 ===")
distorted = transform_cycle(rnc3(), np.diag([2.0, 1.0, 1.0, 1.0]))
res = balance_iterate(distorted, max_steps=500, tol=1e-8)
print(f"converged: {res.converged} in {res.steps} steps")
for i, r in enumerate(res.residuals):
    print(f"  step {i:3d}: |M|_1 = {r:.3e}")

print()
print("=== already balanced input ===")
res0 = balance_iterate(rnc3(), max_steps=10, tol=1e-8)
print(f"steps needed: {res0.steps} (fixed point), residual {res0.residuals[0]:.2e}")

print()
print("=== unstable input: a distorted line pair ===")
lines = ProjectiveCycle(
    2,
    [
        Component(np.array([[0, 0], [1, 0], [0, 1]], dtype=complex)),
        Component(np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)),
    ],
)
bad = transform_cycle(lines, np.diag([3.0, 1.0, 1.0]))
res1 = balance_iterate(bad, max_steps=40, tol=1e-10, order=24)
print(f"converged: {res1.converged} after {res1.steps} steps")
print(f"residuals: {[f'{r:.3f}' for r in res1.residuals]}")
print(f"note: {res1.note}")
print("a line pair is Chow-unstable: the metric runs off to infinity, the")
print("quadrature stops seeing the pair's mass 2, and the run stops there")
print("instead of reporting a spurious zero of the moment map")
