"""Host-speed calibration of the benchmark's timings.

On a shared host the processor's speed moves by 20 to 40 % within
seconds, and every op's latency moves with it.  The benchmark therefore
times a fixed kernel (small NumPy calls and interpreted arithmetic, the
mix flattop's own code runs) next to every op, and reports each latency
scaled to a host on which the kernel takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / (median time of the kernel runs
             from PAD_S before the op starts to PAD_S after it ends)

A change to flattop changes the measured latency and not the kernel, so
it shows in full in the scaled figure; a slower or faster stretch of the
host changes both and cancels.  The kernel is part of the benchmark, not
of the library, and is the same on every commit.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.002  # about the kernel's median time on the 2-vCPU host of README.md
PAD_S = 0.3

_X = np.linspace(0.0, 1.0, 256)


def kernel() -> float:
    """Run the fixed calibration work once; returns its wall time in s."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(100):
        total += float(np.sum(np.exp(-_X * (i * 0.01))))
    for i in range(10000):
        total += (i * 0.5) % 3.0
    return time.perf_counter() - t0


def sample(reps: int) -> list[list[float]]:
    """``reps`` kernel runs as ``[start, seconds]`` pairs (perf_counter clock)."""
    out = []
    for _ in range(reps):
        start = time.perf_counter()
        out.append([start, kernel()])
    return out


class Scale:
    """Maps latencies measured next to the kernel runs ``samples`` to the
    reference host."""

    def __init__(self, samples: list[list[float]]) -> None:
        ordered = sorted(samples)
        self.times = [s[0] for s in ordered]
        self.seconds = [s[1] for s in ordered]

    def latency(self, start: float, seconds: float) -> float:
        """Scale ``seconds``, measured from ``start`` on."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, start + seconds + PAD_S)
        if lo == hi:  # no kernel run that close: take the nearest one
            lo = min((j for j in (lo - 1, lo) if 0 <= j < len(self.times)),
                     key=lambda j: abs(self.times[j] - start))
            hi = lo + 1
        return seconds * REFERENCE_S / statistics.median(self.seconds[lo:hi])
