"""Host speed probe: a fixed standard-library computation timed between calls.

The hosts this benchmark runs on are shared, and the speed of plain Python
code on them drifts by a quarter or more over minutes (a fixed loop measured
back to back).  Each pass therefore times this probe before its first call,
whenever a second has passed since the last probe, and after its last call.
A call's time is then scaled to a host on which the probe takes
``REFERENCE_S``: ``seconds * (REFERENCE_S / probe) ** EXPONENT``, where
``probe`` is the median of the two samples before and the two samples after
the call (fewer at the ends of a pass), which smooths the probe's own noise.
The probe does not touch endatlas, so a change to the program moves the
scaled times exactly as it moves the raw ones; a change in host speed moves
both the call and the probe and largely cancels.

The probe's speed swings more than the workloads' do (a probe 1.5 times
faster comes with workloads about 1.3 times faster), so the correction is
partial.  ``EXPONENT`` was chosen from 29 runs per workload on a 2-core
x86 host, taken in four sets at different times, as the value with the
smallest quartile spread of ``total_s`` across all sets and workloads: the
mean spread was 0.115 with exponent 1, 0.087 with 0.7, and 0.22 unscaled.

The probe does what the library spends its time on: Gauss-Jordan inversion
over Fractions of small Cartan matrices, and hashing of small integer tuples
into sets.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.030  # probe time that defines the scaled second
EXPONENT = 0.7
INTERVAL_S = 1.0
_MATRICES = (
    ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
    ((2, -3), (-1, 2)),
)


def _invert(matrix):
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(n)]
           for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def probe_once():
    """Seconds taken by the fixed computation (about 30 ms on a 2-core x86 box).

    The collector is off meanwhile: a collection would walk the caller's
    heap, and the time of that depends on the program, not on the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(30):
            for m in _MATRICES:
                _invert(m)
            seen = set()
            for i in range(60):
                seen.add(tuple((i * j) % 7 for j in range(8)))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probe samples taken between calls, and the scaling they give."""

    def __init__(self):
        self.samples = []
        self._last = 0.0

    def sample(self, count=1):
        """Add one sample: the median of ``count`` probes."""
        self.samples.append(statistics.median(probe_once() for _ in range(count)))
        self._last = time.perf_counter()

    def due(self):
        return time.perf_counter() - self._last >= INTERVAL_S

    def scale(self, before):
        """Factor for a call made after sample ``before`` and before the next one."""
        near = self.samples[max(0, before - 1):before + 3]
        return (REFERENCE_S / statistics.median(near)) ** EXPONENT
