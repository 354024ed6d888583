"""Stability invariants of polarized degenerations.

Exact loop factorization over the local ring at t = 0, stability weight
polynomials (Chow and Futaki invariants), moment maps of projective cycles,
balanced-embedding iteration, and density-of-states asymptotics for circle
invariant metrics on the Riemann sphere.
"""

__version__ = "0.1.0"


def ascii_int(text, message=None):
    """int(text) for ASCII digits after an optional "-" (int() also reads " 1", "+1", "1_0"), else ValueError."""
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise ValueError(message or f"expected an integer, got {text!r:.40}")
