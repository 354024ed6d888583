"""Density of states on the sphere and its large-level expansion.

For a circle-invariant metric the level-k density of states rho_k is an
explicit finite sum.  Its integral against the k-scaled volume form is
exactly the section count k+1; pointwise it tends to 1 with first
correction a1/k, where a1 is half the scalar curvature.  The discrepancy
between the normalized density volume and the pulled-back Fubini-Study
volume decays with k (like 1/k for non-constant curvature, identically
zero for the round metric).
"""

import numpy as np

from kstab.bergman import (
    RadialMetric,
    default_grid,
    expansion_fit,
    gram,
    moment_from_bergman,
    rho,
    scalar_curvature,
    theta_total_variation,
)
from kstab.quadrature import radial_integral

round_m = RadialMetric(0.0)
pert = RadialMetric(0.1)
grid = default_grid(9, 0.1, 0.9)

print("=== the round metric: everything is exact ===")
k = 16
print(f"rho_{k} on the grid:", np.round(rho(round_m, k, grid), 12))
print(f"expected constant  : {(k + 1) / k:.12f}")

print()
print("=== normalization: integral of rho_k equals the section count ===")
for metric, name in ((round_m, "round"), (pert, "perturbed")):
    for k in (8, 64):
        norms = gram(metric, k)
        val, _ = radial_integral(
            lambda s: rho(metric, k, s, norms) * k * metric.density(s), tol=1e-11
        )
        print(f"{name:9s} k={k:2d}: integral = {val:.10f} (dim = {k + 1})")

print()
print("=== the first correction is half the scalar curvature ===")
fit = expansion_fit(pert, [16, 24, 32, 48, 64], grid)
target = scalar_curvature(pert, grid) / 2
print("s-grid          :", np.round(grid, 3))
print("fitted a1       :", np.round(fit.a1, 5))
print("S/2 (exact)     :", np.round(target, 5))
print("max rel. error  :", f"{np.max(np.abs(fit.a1 - target) / target):.2%}")

print()
print("=== discrepancy decay ===")
print("round metric, k=16:", f"{theta_total_variation(round_m, 16):.2e}", "(zero)")
tvs = []
for k in (8, 16, 32, 64):
    tv = theta_total_variation(pert, k)
    tvs.append(tv)
    print(f"perturbed, k={k:2d}: total variation = {tv:.6f}")
slope = np.polyfit(np.log([8, 16, 32, 64]), np.log(tvs), 1)[0]
print(f"log-log slope = {slope:.3f} (1/k: the curvature is not constant)")

print()
print("=== moment pairings from the density side ===")
k = 3
a = np.array([1.0, 0.0, 0.0, -1.0])
print("round    <M, diag(1,0,0,-1)> =", f"{moment_from_bergman(round_m, k, a):+.2e}")
b = np.array([1.0, -1.0, 0.0, 0.0])
print("perturbed <M, diag(1,-1,0,0)> =", f"{moment_from_bergman(pert, k, b):+.6f}")
