import subprocess
import sys

import numpy as np
import pytest

# Run the code in argv[1] with the address space capped at 1 GiB.
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
exec(sys.argv[1])
"""


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def capped_python():
    """Run Python code in a fresh interpreter under a 1 GiB address-space cap,
    so storage that grows with an exponent span of 10^9 fails with
    MemoryError instead of filling the machine's memory."""

    def run(code):
        return subprocess.run(
            [sys.executable, "-c", _CAPPED, code], capture_output=True, text=True, timeout=60
        )

    return run


@pytest.fixture
def gram_quadratures(monkeypatch):
    """Levels k of the radial quadratures that ``bergman.gram`` runs, one
    entry per quadrature; calls answered from the metric's kept norms run
    none."""
    import kstab.bergman as bg

    levels, inside = [], []
    real_gram, real_integral = bg.gram, bg.radial_integral

    def gram(metric, k):
        inside.append(k)
        try:
            return real_gram(metric, k)
        finally:
            inside.pop()

    def integral(f, *args, **kwargs):
        if inside:
            levels.append(inside[-1])
        return real_integral(f, *args, **kwargs)

    monkeypatch.setattr(bg, "gram", gram)
    monkeypatch.setattr(bg, "radial_integral", integral)
    return levels
