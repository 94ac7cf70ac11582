"""Host-speed reference kernels, interleaved with the ops to calibrate times.

On a shared host the same code runs up to 1.6x slower for seconds at a time
(CPU time tracks wall time, so this is not preemption). A fixed numpy kernel
timed every REF_EVERY_S between ops slows by nearly the same factor, so each
op time is rescaled by nominal_s / (the reference's median duration around
that op). A calibrated time reads as the time the op would take on a host
where the reference kernel takes nominal_s. The kernels never call mptrotter, so no
program change can move them.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# Take a reference sample before the next op once this long has passed, and
# up to REF_BURST samples after an op that took several times as long.
REF_EVERY_S = 0.1
REF_BURST = 3
# An op is calibrated by the samples within this long of its start or end,
# and by at least the REF_MIN_SAMPLES nearest: one sample is noisy, and ops
# longer than REF_EVERY_S have only one on each side.
REF_WINDOW_S = 0.5
REF_MIN_SAMPLES = 4


class SmallKernel:
    """Python-bound: 150 eigendecompositions and products of 4x4 matrices."""

    nominal_s = 3.0e-3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.h = h + h.conj().T

    def __call__(self) -> None:
        out = np.eye(4, dtype=complex)
        for k in range(150):
            w, v = np.linalg.eigh(self.h)
            out = out @ ((v * np.exp(-0.1j * k * w)) @ v.conj().T)


class DenseKernel:
    """BLAS-bound: one 256x256 eigendecomposition and four 256x256 products."""

    nominal_s = 30e-3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.h = (a + a.conj().T) / 2.0

    def __call__(self) -> None:
        w, v = np.linalg.eigh(self.h)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        for _ in range(3):
            u = u @ u


KERNELS = {"small": SmallKernel, "dense": DenseKernel}


class HostClock:
    """Reference-kernel samples (midpoint, duration) taken during a run."""

    def __init__(self, kind: str) -> None:
        self.kernel = KERNELS[kind]()
        self.stamps: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> float:
        start = perf_counter()
        self.kernel()
        end = perf_counter()
        self.stamps.append((start + end) / 2.0)
        self.durations.append(end - start)
        return end - start

    def maybe_sample(self) -> None:
        gap = perf_counter() - self.stamps[-1] if self.stamps else REF_EVERY_S
        for _ in range(min(REF_BURST, int(gap / REF_EVERY_S))):
            self.sample()

    def factor(self, start: float, elapsed: float) -> float:
        """nominal_s over the median reference duration around an op."""
        mid, half = start + elapsed / 2.0, REF_WINDOW_S + elapsed / 2.0
        lo = bisect.bisect_left(self.stamps, mid - half)
        hi = bisect.bisect_right(self.stamps, mid + half)
        if hi - lo < REF_MIN_SAMPLES:
            pos = bisect.bisect_left(self.stamps, mid)
            hi = min(len(self.stamps), max(pos + REF_MIN_SAMPLES // 2, REF_MIN_SAMPLES))
            lo = max(0, hi - REF_MIN_SAMPLES)
        return self.kernel.nominal_s / statistics.median(self.durations[lo:hi])
