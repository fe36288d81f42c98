"""Machine-speed normalization of pass times.

On a shared host the speed of a core drifts, by up to 40 percent over
seconds to minutes on the 2-vCPU Xeon this benchmark was written on, which
moves raw pass times far more than the changes the benchmark must detect.
So a fixed calibration kernel (exact Fraction arithmetic that does not touch
the library) runs at the start and end of a pass and every ``INTERVAL``
seconds in between, from a SIGALRM handler, with the garbage collector off
so that the program's heap does not change the kernel's cost.  Each stretch
of the pass between two kernel runs is rescaled by ``KERNEL_REF_S`` over the
running median of the kernel times in a window of ``WINDOW`` samples around
it, so one preempted kernel run does not rescale its neighbours; the
kernel's own time is excluded.

The rescaling assumes the kernel and the program share one core in turn.
A program that ran threads of its own while the kernel runs would slow the
kernel and be credited as a slow host, so it would invalidate the rescaling.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.025  # seconds between kernel runs: the host's speed changes within a second
WINDOW = 6  # kernel samples in the running median of a stretch, half on each side
KERNEL_REF_S = 0.0008  # kernel time at the reference speed (the quiet host)


def kernel():
    """Fraction elimination on the 9 x 9 Hilbert matrix (about 1 ms)."""
    n = 9
    h = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            r = h[i][j] / h[j][j]
            for k in range(j, n):
                h[i][k] -= r * h[j][k]
    return h[n - 1][n - 1]


class SpeedSampler:
    """Context manager that times ``kernel`` at entry, every INTERVAL, and at exit."""

    def __init__(self, on_sample=None):
        self.samples: list[tuple[float, float]] = []
        self.on_sample = on_sample  # called with each kernel time, e.g. to keep it out of spans

    def _sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((t0, t1))
        if self.on_sample is not None:
            self.on_sample(t1 - t0)

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def times(self):
        """(raw seconds, seconds at the reference speed) between entry and exit."""
        kernels = [e - s for s, e in self.samples]
        half = WINDOW // 2
        raw = norm = 0.0
        for i, ((_, e0), (s1, _)) in enumerate(zip(self.samples, self.samples[1:])):
            gap = s1 - e0
            window = kernels[max(0, i + 1 - half):i + 1 + half]
            raw += gap
            norm += gap * KERNEL_REF_S / statistics.median(window)
        return raw, norm
