"""Scaling of the benchmark's timings to a nominal host speed.

On a shared 2-core host the speed of a core changes by 30-50 % over
minutes, with whatever runs beside it, and a run of tens of seconds cannot
average that out.  So every timing is also taken against a reference: a
fixed kernel of the benchmark's own (numpy complex products and an
interpreter loop, no code of the program) that a ``SIGALRM`` handler runs
every ``INTERVAL`` seconds while the workload runs.  A timed interval's
wall (CPU) time, less the handler's own time inside it, is divided by the
median wall (CPU) time of the reference samples taken in and around it and
multiplied by ``REF_WALL_S`` (``REF_CPU_S``), the kernel's time on an idle
core of the host the benchmark was built on.  The result reads as seconds
on that idle host; a program that does less work reads lower, whatever the
host is doing at the time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Seconds between reference samples; a sample costs about 2 ms.
INTERVAL = 0.05
# The reference kernel's median wall and CPU time on an idle core of an
# Intel Xeon host (2 MiB L2, Python 3.11, numpy 2.4).
REF_WALL_S = 0.85e-3
REF_CPU_S = 0.85e-3
# A timed interval is scaled by at least this many samples: those inside it
# and, when fewer, the nearest ones on either side.
MIN_SAMPLES = 7

_Z = 0.35 * np.exp(2j * np.pi * np.arange(2048) / 2048)


def reference() -> float:
    """The fixed reference kernel: about a millisecond on an idle core."""
    acc = np.ones_like(_Z)
    x = _Z
    for _ in range(16):
        acc *= 1.0 - x
        x = x * 0.7
    acc = np.exp(np.log(acc) / 3.0)
    s = 0.0
    for i in range(2000):
        s += (i * 0.37) % 5.0
    return float(acc.real.sum()) + s


@dataclass(frozen=True)
class Mark:
    wall: float
    cpu: float
    spent_wall: float  # handler time so far
    spent_cpu: float


class Pacer:
    """Reference samples taken by a timer signal while it is entered."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.at: list[float] = []  # wall time of each sample
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.spent_wall = self.spent_cpu = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        """One sample: the faster of two runs of the reference kernel."""
        w0, c0 = time.perf_counter(), time.process_time()
        reference()
        w1, c1 = time.perf_counter(), time.process_time()
        reference()
        w2, c2 = time.perf_counter(), time.process_time()
        self.at.append(w0)
        self.walls.append(min(w1 - w0, w2 - w1))
        self.cpus.append(min(c1 - c0, c2 - c1))
        self.spent_wall += w2 - w0
        self.spent_cpu += c2 - c0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.at) < MIN_SAMPLES:  # a run too short for the timer
            self._sample()
        return False

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), time.process_time(), self.spent_wall, self.spent_cpu)

    def scaled(self, start: Mark, end: Mark) -> tuple[float, float]:
        """(wall, CPU) seconds from ``start`` to ``end`` at nominal speed."""
        wall = end.wall - start.wall - (end.spent_wall - start.spent_wall)
        cpu = end.cpu - start.cpu - (end.spent_cpu - start.spent_cpu)
        near = self._near(start.wall, end.wall)
        ref_wall = statistics.median(self.walls[i] for i in near)
        ref_cpu = statistics.median(self.cpus[i] for i in near)
        return wall * REF_WALL_S / ref_wall, cpu * REF_CPU_S / max(ref_cpu, 1e-9)

    def _near(self, t0: float, t1: float) -> range:
        """Indices of the samples in [t0, t1], widened to the nearest
        ``MIN_SAMPLES`` when fewer fall inside."""
        at = self.at
        lo, hi = bisect.bisect_left(at, t0), bisect.bisect_right(at, t1)
        while hi - lo < MIN_SAMPLES:
            if hi == len(at) or (lo > 0 and t0 - at[lo - 1] < at[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return range(lo, hi)
