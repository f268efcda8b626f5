"""Speed calibration against the machine's changing pace.

On a shared 2-core host the same pure-Python work runs up to about 1.8x
slower for stretches of seconds to minutes, and every workload slows by
about the same factor.  While the benchmark times ops, an interval timer
runs a fixed 10 ms kernel in the main thread every EVERY_S seconds and
records how long it took.  An op's calibrated time is its wall time, less
the time the kernel took inside it, scaled by REFERENCE_S over the mean
kernel time around the op: its time at the pace where the kernel takes
REFERENCE_S.  The kernel is benchmark code that no change to iqgalois can
touch.
"""

import signal
import statistics
import time

REFERENCE_S = 0.01  # kernel time that defines calibrated seconds
EVERY_S = 0.25  # interval between two kernel samples


def kernel_seconds() -> float:
    """Wall time of a fixed integer and dict loop, about 10 ms on the reference host."""
    t0 = time.perf_counter()
    table, x = {}, 1
    for i in range(40_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 4095] = i
    return time.perf_counter() - t0


class Calibrator:
    """Kernel samples on a timer inside the context, plus one on entry and exit.

    Record each op's perf_counter interval inside the context, and convert
    it with scale() after the context has closed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self.factors: list[float] = []
        self._previous = None

    def tick(self, signum=None, frame=None) -> None:
        """Take one kernel sample; the SIGALRM handler while the timer runs."""
        start = time.perf_counter()
        self.samples.append((start, kernel_seconds()))

    def __enter__(self):
        self.tick()
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.tick()

    def scale(self, start: float, end: float) -> float:
        """Calibrated seconds of the op timed over [start, end]."""
        near = [k for t, k in self.samples if start - EVERY_S <= t <= end + EVERY_S]
        factor = REFERENCE_S / statistics.fmean(near)
        self.factors.append(factor)
        return self.unscaled(start, end) * factor

    def unscaled(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] less the kernel time inside it."""
        return end - start - sum(k for t, k in self.samples if start <= t <= end)

    def median_factor(self) -> float:
        return statistics.median(self.factors)
