import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass

# BLAS on one thread, as ``kstab.cli.main`` sets it before numpy loads: a
# threaded matrix-vector product splits its rows by thread, so in-process
# results would differ in their last bits from the command line's
if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import numpy as np  # noqa: E402
import pytest

# Run the code in argv[1] with the address space capped at 1 GiB.
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
exec(sys.argv[1])
"""


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self):
        return self.stdout


class Runner:
    """Run ``kstab.cli.main`` in-process with stdout and stderr captured.

    Only SystemExit is caught: it gives the exit code, and is kept as
    ``exception`` when the code is not 0.  Any other exception propagates."""

    def invoke(self, main, args):
        out, err = io.StringIO(), io.StringIO()
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as exc:
                code = exc.code or 0
                exception = exc if code else None
        return Result(code, out.getvalue(), err.getvalue(), exception)


@pytest.fixture
def runner():
    return Runner()


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
