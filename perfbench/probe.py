"""A fixed reference computation that gauges how fast the host runs now.

On a shared host the same code runs up to half again as long from one
minute to the next, in CPU time as much as in wall time: the slowdown
comes from other tenants on the same hardware, not from waiting for a
core. The benchmark times this probe between the calls it measures and
reports their time in units of the probe's, scaled by REFERENCE_S, so a
slow spell of the host stretches both and cancels out.

The probe is the benchmark's own code, never rieszlab's, so a change to
the program cannot move it. It mixes what the workloads spend their time
on: interpreted Python, numpy calls on a 512-point radial array, and
FFTs and array passes over a 256 x 128 grid.
"""

import time

import numpy as np

# The probe's median time, on one core, on the host the first results
# were measured on (2 vCPUs, "Intel(R) Xeon(R) Processor", Python 3.11.7,
# numpy 2.4.6). A normalised time is in seconds as that host would take
# them at that speed.
REFERENCE_S = 0.022

_RNG = np.random.default_rng(20220709)
_GRID = _RNG.random((256, 128))
_RADIAL = _RNG.random(512)


def probe():
    """Seconds one pass of the reference computation takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100000):
        total += i * i % 7
    x = _RADIAL
    for _ in range(1500):
        x = np.sqrt(x * x + 1.0) - 0.5 * x
    for _ in range(12):
        f = np.fft.rfft(_GRID, axis=1)
        b = np.fft.irfft(f * 0.5, n=_GRID.shape[1], axis=1)
        x = np.cumsum(b * _GRID, axis=0)
    return time.perf_counter() - t0


def probes(count):
    """Seconds of each of `count` probes in a row."""
    return [probe() for _ in range(count)]
