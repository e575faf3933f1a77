"""Host-speed calibration for the benchmark's timings.

On a shared host the same code runs up to about 1.7 times slower in
spells that last from seconds to minutes, while the process is never
descheduled: neighbours slow the core down. A whole run can sit in one
spell, so wall times alone differ between runs by more than the bounds
the benchmark has to hold.

The benchmark therefore times a fixed reference kernel right before and
right after each op and each set-up, and scales that wall time by
``NOMINAL_S / kernel_seconds``: the op's time on a host that runs the
kernel in ``NOMINAL_S``. The kernel mixes the kinds of work the
library does (a Python loop of small numpy steps as in the MTI filter,
plain interpreter work, FFT and log-magnitude vector work) on fixed
data. It imports nothing from the library, so a change to the library
moves the op times and leaves the kernel alone. It makes no BLAS call,
so BLAS worker threads that an op leaves behind do not enter it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The kernel's time on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4.6) in
# its fast state; slowed by neighbours it takes about 4.4-5.7 ms. It only
# sets the scale of the adjusted times; their spread and the ratio
# between two commits do not depend on it.
NOMINAL_S = 0.003
REPEATS = 3

_rng = np.random.default_rng(0)
_LANES = _rng.standard_normal((160, 128)) + 1j * _rng.standard_normal((160, 128))
_B = np.array([0.5, -1.0, 0.5])
_A = np.array([1.0, -1.5, 0.6])
_ROWS = _rng.standard_normal((32, 256))


def kernel() -> float:
    """One pass of the fixed reference work; returns a value so that no
    step can be skipped."""
    state = np.zeros((2, _LANES.shape[1]), dtype=complex)
    for xn in _LANES:  # second-order direct form II transposed, lane-wise
        yn = _B[0] * xn + state[0]
        state[0] = state[1] + _B[1] * xn - _A[1] * yn
        state[1] = _B[2] * xn - _A[2] * yn
    acc = 0
    for i in range(15_000):
        acc += i * i
    spectrum = 20.0 * np.log10(np.maximum(np.abs(np.fft.fft(_ROWS, axis=1)), 1e-12))
    return float(abs(state).sum() + spectrum[0, 0]) + acc * 0.0


def measure() -> float:
    """Seconds one kernel pass takes now: the median of ``REPEATS`` passes."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def adjusted(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Wall seconds scaled to a host that runs the kernel in ``NOMINAL_S``."""
    return seconds * NOMINAL_S / ((kernel_before + kernel_after) / 2)
