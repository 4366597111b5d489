"""Host-speed sampling, so timed figures do not follow the host's drift.

The reference machine is a shared VM whose speed drifts by 15 to 80% over
tens of seconds (see README.md).  While the timed loop runs, an interval
timer interrupts it and times a fixed reference task: FFTs, a QR, a gram
and a small SVD at about the workload's shapes.  A time figure is then
reported in reference seconds::

    reported = (measured - reference tasks run inside it) * REF_S / local task time

where the local task time is the median of the samples taken during the
measured span and within one interval of it.  ``REF_S`` is the task's
median time on the reference machine, so there reported and measured
seconds agree at that machine's usual speed.  When the host slows every
computation alike, the task slows with it and the reported figure stays
put.  The package under test never runs in the task, so a change to the
package moves the reported figure as it moves the measured one.

Python runs the handler between bytecodes of the main thread, so a sample
lands inside a solve only between two NumPy calls; its own duration is
subtracted from the span it lands in.
"""

from __future__ import annotations

import bisect
import signal
import time
from dataclasses import dataclass

import numpy as np
import scipy.fft


@dataclass(frozen=True)
class Task:
    rows: int        # rows of the random complex block Z
    cols: int        # its columns
    nfft: int        # FFT length of Z's columns
    gemm: int        # side of a real square product
    reps: int
    ref_s: float     # median time on the reference machine


# Medians of 300 samples on the reference machine (Intel Xeon, 2 vCPUs,
# OpenBLAS on one thread).  "small" mirrors the n=127 grid's many small
# calls; "large" the FFT length and tall QRs of the n >= 2046 workloads.
TASKS = {
    "small": Task(rows=127, cols=12, nfft=256, gemm=64, reps=16, ref_s=4.0e-3),
    "large": Task(rows=2048, cols=32, nfft=4096, gemm=256, reps=1, ref_s=12.0e-3),
}
# Seconds between samples: 2 to 5% of the loop's time goes to the task.
INTERVAL_S = 0.25


def make_task(spec: Task):
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((spec.rows, spec.cols)) + 1j * rng.standard_normal((spec.rows, spec.cols))
    A = rng.standard_normal((spec.gemm, spec.gemm))

    def task():
        for _ in range(spec.reps):
            F = scipy.fft.fft(Z, spec.nfft, axis=0)
            scipy.fft.ifft((F * F).sum(axis=1))
            np.linalg.qr(Z)
            np.linalg.svd(Z.conj().T @ Z)
            A @ A
    return task


class HostSpeed:
    """Times a reference task every :data:`INTERVAL_S` seconds while started."""

    def __init__(self, spec: Task):
        self.spec = spec
        self.task = make_task(spec)
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._running = False
        self._sampling = False

    def sample(self):
        t0 = time.perf_counter()
        self.task()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def _on_alarm(self, signum, frame):
        if not self._sampling:  # a sample slower than the interval is not interrupted
            self._sampling = True
            try:
                self.sample()
            finally:
                self._sampling = False

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop sampling; a second call does nothing."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._running = False
        self.sample()  # so the last span has a sample after it

    def inside(self, t0: float, t1: float) -> float:
        """Seconds the task ran between ``t0`` and ``t1``."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return float(sum(self.durations[lo:hi]))

    def local_task_s(self, t0: float, t1: float) -> float:
        """Median task time over the samples within one interval of ``[t0, t1]``."""
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL_S)
        if lo == hi:  # none that close: take the nearest on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return float(np.median(self.durations[lo:hi]))

    def reference_s(self, t0: float, t1: float, upto: float | None = None) -> float:
        """``[t0, upto]`` in reference seconds (``upto`` defaults to ``t1``).

        The speed is taken over the whole span ``[t0, t1]``.
        """
        end = t1 if upto is None else upto
        own = (end - t0) - self.inside(t0, end)
        return own * self.spec.ref_s / self.local_task_s(t0, t1)
