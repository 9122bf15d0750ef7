"""Wall times scaled to a reference CPU speed, for a host whose speed wanders.

On a shared host the vCPUs of a small VM run at two speeds, a second or
so at a time, the slow one about 1.7 times slower (a busy hyperthread
sibling or the like): the process's CPU time grows with its wall time, so
neither shows it. A job of a few seconds lands in an unknown mix of the
two, and the mix changes from minute to minute.

``Sampler`` measures that mix while a job runs. A daemon thread of the
job's own process times a fixed pure-Python workload (the probe) every
``INTERVAL_S``. The process is pinned to one CPU first, so the thread and
the job share it. If a probe took ``dt``, the CPU ran at ``PROBE_REF_S / dt``
of the reference speed at that moment, and the job's time at the reference
speed is its wall time times the mean of those ratios. The probe costs
about 1 % of the CPU and does not touch the program's data.

The probe does what the program does most: method calls, attribute
access, float math, a generator. A tight integer loop slows less than the
program when the host is busy (the job's wall time grows as that loop's
time to the power 1.6 to 1.8), so scaling by it corrects only part of the
slow-down; this probe's power is 1.0 to 1.15.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

# One probe at the fast speed of the machine the benchmark was defined on
# (2-vCPU Intel Xeon VM): about the 5th percentile of probes taken during jobs.
PROBE_REF_S = 230e-6
INTERVAL_S = 0.02


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts later) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def dist(self, other: "_Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def probe() -> float:
    """Seconds for a fixed workload: each of 20 points' nearest of 60."""
    start = time.perf_counter()
    points = [_Point(i * 0.5, (i * 37) % 11) for i in range(60)]
    for a in points[:20]:
        min(a.dist(b) for b in points if b is not a)
    return time.perf_counter() - start


class Sampler:
    """Times ``probe`` every ``INTERVAL_S`` in a thread, from ``start`` to ``stop``."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._done.wait(INTERVAL_S):
            self.probes.append(probe())

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> float:
        """Mean CPU speed since ``start``, as a share of the reference speed."""
        self._done.set()
        self._thread.join()
        if not self.probes:
            self.probes.append(probe())
        return statistics.fmean(PROBE_REF_S / dt for dt in self.probes)
