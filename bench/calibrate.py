"""Host speed calibration: fixed pieces of work timed next to every timed case.

The benchmark runs on a small VM whose virtual CPUs the host preempts for a
few milliseconds at a time, more or less often as the host's load changes
over seconds to minutes; process launches (dynamic loading, page faults)
slow down and speed up with it too.  The VM cannot see this (no steal time
is reported, and CPU time grows with wall time), so it shows as the same
work taking 1.2 to 2 times as long.  The two virtual CPUs are preempted
independently of each other.

So the whole benchmark runs on one virtual CPU, and every timed case is
bracketed by calibrations of its own kind, run on that CPU: ``measure`` for
a case that runs inside a worker, ``LAUNCH_CMD`` for a case that is a fresh
process.  A case's time scaled by the calibration's reference time over the
calibration times around it is the time it would take at the reference
speed; that cancels the slow changes of the host's load and leaves the
program's own cost.  No calibration touches ``kstab``, so no change to the
program can change it.

The in-worker calibration is pure-Python exact arithmetic.  A numpy
calibration was tried for the numeric commands and tracked their slowdowns
worse than this one did.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from fractions import Fraction

# Exact polynomial arithmetic on dicts of Fractions, the kind of work
# ``laurent``, ``weights`` and ``chow`` do.
_POLY = {e: Fraction((-1) ** e * (e + 1), e + 2) for e in range(24)}
UNITS = 10
# A fresh interpreter that imports numpy: process start, dynamic loading and
# the page faults of a large import, as in every kstab launch.
LAUNCH_CMD = [sys.executable, "-c", "import numpy"]
# Seconds each calibration takes on an unloaded 2-vCPU AMD EPYC VM with
# Python 3.11 and numpy 2.4.
REFERENCE_S = 0.030
LAUNCH_REFERENCE_S = 0.070


def _unit():
    acc = {}
    for _ in range(3):
        for e1, c1 in _POLY.items():
            for e2, c2 in _POLY.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return acc


def measure():
    """Seconds the fixed in-process calibration work takes now."""
    t0 = time.perf_counter()
    for _ in range(UNITS):
        _unit()
    return time.perf_counter() - t0


def scale(seconds, cals, reference):
    """Times ``seconds[i]``, each measured between calibrations taking
    ``cals[i]`` and ``cals[i + 1]`` seconds, scaled to the calibration's
    ``reference`` time.

    A case's host speed is the median of the six calibrations nearest it,
    three before and three after: a single calibration lasts too short a
    time to average over the host's preemptions, and now and then runs
    half as fast as the cases around it.
    """
    return [t * reference / statistics.median(cals[max(0, i - 2):i + 4])
            for i, t in enumerate(seconds)]


def pin_to_one_cpu():
    """Run this process and its children on one CPU, the lowest allowed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
