"""A gauge of how fast the shared host runs while the benchmark measures.

The host lends its cores to other tenants.  On the machine the benchmark was
written on, identical runs of the eigenvalue filter a few minutes apart
differed by up to 20 % in raw throughput, and a fixed reference kernel timed
in short slices between the workload's operations moved with them.  Each
run therefore divides its times by the ratio of the kernel's median slice
time to REFERENCE_S: the figures read as if the host always ran the kernel
in REFERENCE_S.  There it cut the run-to-run spread of in-process operation
times to a third or less, and narrowed that of set-up times in 11 of 12
comparisons.  The kernel does not touch the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median slice time on an Intel Xeon vCPU with numpy 2.4 and Python 3.11;
# it fixes the scale of the reported times and nothing else.
REFERENCE_S = 0.45e-3
# One slice per this much measuring time keeps the gauge near 2 % of a run.
SLICE_EVERY_S = 0.02
MAX_SLICES_PER_TICK = 10
# Slices whose median gives the host speed around one operation.
NEAREST = 4

_M = np.array(
    [
        [0.6, 0.1j, -0.3, 0.2],
        [0.2, 0.5, 0.1, -0.4j],
        [0.3j, -0.2, 0.7, 0.1],
        [0.1, 0.4, -0.2j, 0.5],
    ]
)


def reference_slice() -> float:
    """Interpreted float arithmetic and small complex matrix products,
    the same kinds of work the program does."""
    acc = 0.0
    for k in range(2000):
        acc += k * 0.5
    A = np.eye(4, dtype=complex)
    for _ in range(50):
        A = A @ _M
        A /= np.abs(A).max()
    return acc + A[0, 0].real


class SpeedGauge:
    """Reference slice times taken between a run's operations."""

    def __init__(self):
        self.ends: list[float] = []
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def measure(self, slices: int) -> None:
        for _ in range(slices):
            t0 = time.perf_counter()
            reference_slice()
            self._last = time.perf_counter()
            self.ends.append(self._last)
            self.samples.append(self._last - t0)

    def tick(self) -> None:
        """Take the slices due since the last ones, one per SLICE_EVERY_S."""
        due = int((time.perf_counter() - self._last) / SLICE_EVERY_S)
        if due:
            self.measure(min(due, MAX_SLICES_PER_TICK))

    def slowdown(self) -> float:
        """How many times longer than REFERENCE_S the host took per slice,
        over every slice taken so far."""
        return statistics.median(self.samples) / REFERENCE_S

    def slowdown_at(self, when: float) -> float:
        """How many times longer than REFERENCE_S the host took per slice
        around time ``when``: the median of the NEAREST slices closest to it."""
        j = bisect.bisect_left(self.ends, when)
        lo = max(0, min(j - NEAREST // 2, len(self.samples) - NEAREST))
        return statistics.median(self.samples[lo : lo + NEAREST]) / REFERENCE_S
