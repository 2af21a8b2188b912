"""Machine-speed calibration for timings on a shared machine.

On a machine shared with other tenants, the same work can take twice as
long from one ten-second stretch to the next. While a workload runs, a
timer signal interrupts it every ``INTERVAL_S`` and runs a short fixed
kernel. The kernel's time is taken out of every span it interrupts, and
each span is scaled by NOMINAL_S over the kernel's durations during it
(and one run either side). A scaled time reads as the time on a machine
where the kernel takes exactly NOMINAL_S. The kernel does not touch
thermobit, so a change to thermobit moves a scaled time as it moves the
raw one.

The kernel mixes the interpreter work and small numpy calls that
dominate thermobit's hot loops, so interference slows both alike.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 2e-3  # the kernel's duration on the scale the metrics report
INTERVAL_S = 0.1  # timer period between kernel runs

_MATRIX = np.full((16, 16), 1.0 / 16.0)


def kernel() -> float:
    """Fixed work of about 2 ms: matrix-vector steps, logs and dict use."""
    x = np.full(16, 1.0 / 16.0)
    acc = 0.0
    for i in range(400):
        x = x @ _MATRIX
        acc += float(np.sum(x * np.log(x)))
        d = {"i": i, "acc": acc}
        acc += d["i"] * 1e-12
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedTrack:
    """Kernel runs over time; turns raw spans into scaled durations."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._speed: list[float] = []  # NOMINAL_S / duration, smoothed

    def probe(self, *_signal_args) -> None:
        """Run the kernel once; also the SIGALRM handler."""
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    @contextlib.contextmanager
    def running(self, timer: bool = True):
        """Run the kernel now, at the end of the block and, with `timer`,
        every INTERVAL_S inside it."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        if timer:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()
        durations = [b - a for a, b in zip(self.starts, self.ends)]
        # a running median of three drops single runs slowed by a stray event
        self._speed = [NOMINAL_S / statistics.median(durations[max(0, i - 1):i + 2])
                       for i in range(len(durations))]

    def scaled(self, start: float, end: float) -> float:
        """The span's duration without kernel runs, at nominal speed."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)  # kernel runs inside: [first, last)
        busy = sum(self.ends[i] - self.starts[i] for i in range(first, last))
        # each kernel run stands for an equal stretch of wall time, so the
        # span's speed is the mean over the runs during it and either side
        speeds = self._speed[max(0, first - 1):last + 1]
        return (end - start - busy) * statistics.fmean(speeds)

    def median_s(self) -> float:
        return statistics.median(b - a for a, b in zip(self.starts, self.ends))
