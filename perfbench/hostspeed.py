"""Host-speed sampling: take the host's own speed changes out of task times.

The benchmark runs on a few virtual CPUs of a shared machine.  How fast one
of them runs the same code changes from second to second as other tenants
come and go: a fixed pure-Python loop read between 14 and 29 ms from one
second to the next on a 2-vCPU KVM guest (Xeon, model 207), with fast and
slow spells of a few to tens of seconds, and the two vCPUs changed
independently.  Medians over a run of 10-60 s do not average that out.

So the untraced run pins itself, and the child processes it starts, to one
CPU, and a SIGALRM timer interrupts it every ``PERIOD_S`` seconds of wall
time to time ``probe()``, a fixed piece of the benchmark's own work (never
the program's).  Each probe's time is left out of the task it interrupted.
A span of work then reads ``raw * REF_S / p``, where ``p`` is the median
probe time from ``WINDOW_S`` before the span to ``WINDOW_S`` after it: the
span's time at the reference host speed, the speed at which a probe takes
``REF_S``.  One probe reads the host's speed roughly (a tenth of a second
apart, two probes can differ by half); the median of the ten or more
around a span reads it well, and the speed holds for seconds at a time.  A faster program still reads faster; a slower host does not.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1         # wall time between probes
WINDOW_S = 0.5         # probes this close to a span before or after it count
REF_S = 0.0007         # probe time at the reference host speed

_ARR = np.linspace(0.0, 1.0, 256)


def probe() -> float:
    """Interpreter work and small numpy calls, the mix the workloads run."""
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    counts: dict = {}
    for i in range(800):
        counts[i & 63] = counts.get(i & 63, 0) + 1
    a = _ARR
    for _ in range(60):
        a = np.sqrt(a * 0.5 + 0.25)
    return acc + float(a[-1]) + len(counts)


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts from now on, to the
    highest-numbered CPU it may run on; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """Probes the host every PERIOD_S seconds from a SIGALRM handler."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0                 # total probe time so far
        self._busy = False
        self._previous = None

    def _on_alarm(self, _signum=None, _frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.times.append(took)
        self.spent += took
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._on_alarm()                 # a sample after the last span

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median probe time around [start, end]; with no
        probe in that window, the nearest probe's."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi > lo:
            return REF_S / statistics.median(self.times[lo:hi])
        nearest = min(range(len(self.starts)),
                      key=lambda i: min(abs(self.starts[i] - start), abs(self.starts[i] - end)))
        return REF_S / self.times[nearest]

    def median(self) -> float:
        return statistics.median(self.times)


class Unadjusted:
    """Stands in for a Sampler where times stay as measured (traced runs)."""

    spent = 0.0

    def scale(self, _start: float, _end: float) -> float:
        return 1.0


class Stopwatch:
    """Times one span of work, less the probes that ran inside it."""

    def __init__(self, sampler):
        self.sampler = sampler

    def __enter__(self):
        self._spent = self.sampler.spent
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        self.end = time.perf_counter()
        self.raw = self.end - self.start - (self.sampler.spent - self._spent)
        return False

    def adjusted(self) -> float:
        """Call after the sampler has stopped."""
        return self.raw * self.sampler.scale(self.start, self.end)
