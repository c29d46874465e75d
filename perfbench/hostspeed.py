"""Host speed sampling, so that timings compare across the host's states.

The host this benchmark was built on (2 vCPUs of an Intel Xeon VM)
switches between a fast and a slow state for seconds to minutes at a
time. In the slow state the same code takes 1.5-1.8x as long, and CPU
time rises with wall time, so no clock of the process can tell the two
apart. ``HostSpeed`` therefore runs a fixed reference kernel from a
timer signal every ``PERIOD`` seconds while a workload runs. Its
``now()`` clock leaves out the time spent in those samples, and
``factor_since`` turns the samples taken over an interval into the ratio
REF_SECONDS / mean kernel time. Measured seconds times that factor are
"reference seconds": what the interval would have taken with the kernel
running in REF_SECONDS, the kernel's time in the fast state of that host
(python 3.11, numpy 2.4).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

REF_SECONDS = 0.0032
PERIOD = 0.1
_MATRIX = np.array([[((i * 7 + j * 13) % 17) / 17.0 for j in range(60)] for i in range(25)])


def reference_kernel() -> float:
    """Seconds for a fixed mix of small numpy calls and interpreter work
    that shares no code with swarmcast."""
    vector = _MATRIX[0].copy()
    started = time.perf_counter()
    total = 0.0
    for _ in range(600):
        total += float(np.tanh(_MATRIX @ vector).sum())
        for j in range(30):
            total += j * 0.5
    return time.perf_counter() - started


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling

    def now(self) -> float:
        """A clock that stands still while a sample runs."""
        return time.perf_counter() - self.spent

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        self.samples.append(reference_kernel())
        self.spent += time.perf_counter() - started

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        if not self.samples:
            self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, n: int) -> None:
        for _ in range(n):
            self._sample()

    @contextlib.contextmanager
    def paused(self):
        """No samples while a child process runs: with both vCPUs busy the
        kernel slows down for reasons other than host speed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def mark(self) -> int:
        return len(self.samples)

    def factor_since(self, mark: int) -> float:
        """REF_SECONDS over the mean kernel time of the samples since ``mark``
        (the latest sample if the interval was too short to take one)."""
        recent = self.samples[mark:] or self.samples[-1:]
        return REF_SECONDS / statistics.fmean(recent)
