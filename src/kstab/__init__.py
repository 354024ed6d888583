"""Stability invariants of polarized degenerations.

Exact loop factorization over the local ring at t = 0, stability weight
polynomials (Chow and Futaki invariants), moment maps of projective cycles,
balanced-embedding iteration, and density-of-states asymptotics for circle
invariant metrics on the Riemann sphere.
"""

__version__ = "0.1.0"
