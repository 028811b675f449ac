"""A speed gauge: seconds of program work at a fixed reference speed.

The machine the benchmark runs on is shared: the same round of operations
can take up to twice as long a few seconds later, with CPU time tracking wall
time, because other tenants load the host.  Wall time alone then measures
the host's load as much as the program.  The gauge samples the host's
momentary speed while the program runs and rescales the program's time to
a fixed reference speed:

  * every INTERVAL seconds a timer signal interrupts the process between
    two bytecodes and runs a fixed pure-Python kernel, and records how long
    the kernel took.  The kernel mixes small-integer loops over lists and
    dicts, Fraction arithmetic and a Gaussian elimination mod p, the kinds
    of work asaikit does; of the kernels tried, this mix tracked the rounds
    of all three workloads best.  The garbage collector is held off while
    it runs, so it never collects the program's objects on the kernel's
    time (everything the kernel makes is freed by reference counting);
  * a section's program time is its wall time less the time the kernel
    spent inside it;
  * the section's work at reference speed is that program time times the
    mean of REFERENCE_S / kernel time over the samples taken during the
    section (and the one on each side), i.e. each slice of time between
    two samples is weighted by how fast the host ran then.

REFERENCE_S is the kernel's time on an unloaded core of the machine the
benchmark was written on, so the figures read as seconds on that machine
in a quiet phase.  The kernel costs about 2% of the run; its samples are
kept in memory.  Code under a gauge must not use SIGALRM itself.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.025
REFERENCE_S = 0.00025

_TABLE = [[(i * j + 1) % 251 for j in range(64)] for i in range(24)]
_MAP = {i: (i * 7919) % 251 for i in range(251)}
_P = 10007
_MATRIX = [[(i * 31 + j * 17 + i * j) % _P for j in range(12)] for i in range(12)]


def kernel():
    """The fixed work whose time tells the host's speed."""
    acc = 1
    for row in _TABLE:
        for j in range(0, 64, 2):
            acc = (acc * row[j] + _MAP[(acc + j) % 251]) % 1000003
    x = Fraction(1, 3)
    for i in range(20):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
    m = [row[:] for row in _MATRIX]
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], _P - 2, _P)
        m[c] = [v * inv % _P for v in m[c]]
        for r in range(len(m)):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [(a - f * b) % _P for a, b in zip(m[r], m[c])]
    return acc, x, m


class Gauge:
    """Samples the kernel's time every INTERVAL seconds between `start`
    and `stop`; `mark` and `seconds` turn sections into reference seconds."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.starts: list[float] = []  # perf_counter at each sample's start
        self.durations: list[float] = []
        self.spent = 0.0  # kernel seconds so far
        self._old = None

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        d = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(d)
        self.spent += d

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def mark(self):
        """The current time and kernel time, read with no sample between."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def wall(self, a, b):
        """Wall seconds between marks a and b, the kernel's included."""
        return b[0] - a[0]

    def seconds(self, a, b):
        """Reference seconds of program work between marks a and b."""
        own = (b[0] - a[0]) - (b[1] - a[1])
        lo = max(0, bisect.bisect_left(self.starts, a[0]) - 1)
        hi = bisect.bisect_right(self.starts, b[0]) + 1
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("the gauge took no sample near this section")
        return own * statistics.fmean(REFERENCE_S / d for d in window)

    def slowdown(self):
        """Median kernel time over REFERENCE_S across the whole run."""
        return statistics.median(self.durations) / REFERENCE_S
