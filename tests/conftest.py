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
