"""Fixed references that tell how fast this host runs right now.

The benchmark's host shares its cores with other machines: the same code
runs at times up to twice as slow, in bursts of milliseconds to stretches of
minutes, and process CPU time slows with it.  A time measured in seconds
therefore tells the host's load as much as the program's speed.

Every timed phase interleaves this kernel with what it times, and reports

    calibrated seconds = host seconds * REFERENCE_S / mean kernel time

over the same phase: the time the work would take on a host where one
kernel pass takes REFERENCE_S.  The kernel mixes the three kinds of work
the workloads do (interpreted Python, numpy passes over twice the size of
L2, and text parsing into dicts) and never calls divbound, so a change to
the program cannot move it.  Its arrays are preallocated, about 4 MB in all,
so that its passes take no page faults and add a constant to peak RSS.

Cold starts are calibrated the same way by a reference start: the same
interpreter importing numpy and click, which the CLI imports too, but not
divbound.  Each CLI start is paired with a reference start right after it,
and set-up time is reported as

    calibrated seconds = median(CLI start / reference start) * REFERENCE_START_S
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import numpy as np

# About the mean time of one kernel pass on the 2-core Xeon the benchmark
# was defined on, so that calibrated seconds read close to host seconds.
REFERENCE_S = 0.010

# About the reference start's median time on that machine.
REFERENCE_START_S = 0.20
REFERENCE_START = [sys.executable, "-c", "import numpy, click"]

_N = 1 << 18  # 2 MB of float64 per array, the size of this host's L2
_X = np.linspace(0.0, 1.0, _N)
_Y = np.empty(_N)
_TEXT = "".join(f"k{j}\t{j * 1e-5!r}\n" for j in range(4000))


def _interpreter() -> float:
    s = 0.0
    seen = {}
    for i in range(6000):
        s += float(repr(i * 0.5))
        seen[i & 1023] = s
    return s


def _arrays() -> float:
    for _ in range(4):
        np.negative(_X, out=_Y)
        np.exp(_Y, out=_Y)
        np.multiply(_Y, _X, out=_Y)
    return float(_Y.sum())


def _text() -> int:
    table = {}
    for line in _TEXT.splitlines():
        key, value = line.split("\t")
        table[key] = float(value)
    return len(table)


def kernel() -> float:
    """Run one kernel pass and return its duration in host seconds."""
    t0 = perf_counter()
    _interpreter()
    _arrays()
    _text()
    return perf_counter() - t0


def scale(kernel_times) -> float:
    """Calibrated seconds per host second over a phase with these passes."""
    return REFERENCE_S / statistics.fmean(kernel_times)
