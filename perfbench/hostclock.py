"""Seconds of work, corrected for how fast the host runs at each moment.

On a shared virtual machine the core a benchmark runs on is slowed now
and then by other guests: a fixed pure-Python loop takes its usual time
one moment and up to twice as long the next, in bursts of a few
milliseconds, and the share of slow time drifts over minutes.  Wall time
and process CPU time both take in every slow burst, so two runs of the
same program on the same input can differ by tens of percent.

:class:`HostClock` samples the host's speed while the program runs.  A
``SIGALRM`` timer interrupts the main thread every ``INTERVAL_S`` seconds
and times a fixed probe (a short ``Fraction`` loop, the same kind of
work as the exact simplex).  Between two probes, the process's CPU time
is scaled by ``REFERENCE_PROBE_S`` (the probe's duration on an
uncontended core) over the mean duration of the two probes, and the
rest of the wall time (waiting on the disk, sleeping) counts as it is.
The probes' own time is left out.  The sum is the seconds the work
takes on an uncontended core, whatever the contention was.

The correction is as good as the probe is typical of the program: under
contention a ``Fraction`` loop slows by about 1.9x, while other
pure-Python and numpy work measured here slowed by 1.5x to 2.1x.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

#: Seconds between probes.
INTERVAL_S = 0.005
#: ``Fraction`` operations per probe; about 0.1 ms on an idle 2 GHz core.
PROBE_OPS = 20
#: Duration of one probe on an uncontended core: the typical fastest
#: probe of a benchmark process on a 2.0 GHz Intel Xeon (Sapphire
#: Rapids) KVM guest, where the fastest probes of single processes read
#: 86-94 us.
REFERENCE_PROBE_S = 90e-6
#: Untimed operations first, so a probe does not time the caches the
#: interrupted program left cold.
WARMUP_OPS = 4


def _ops(count: int) -> None:
    total = Fraction(0)
    for i in range(1, count + 1):
        total += Fraction(i, 7) * Fraction(3, i + 1)


def mark() -> tuple[float, float]:
    """``(wall, cpu)``: ``time.perf_counter()`` and ``time.process_time()``."""
    return time.perf_counter(), time.process_time()


class HostClock:
    """Probes host speed on a timer from :meth:`start` to :meth:`stop`."""

    def __init__(self):
        #: ``(begin, end, duration)`` of each probe: ``begin`` and ``end``
        #: are :func:`mark` readings around the whole probe, ``duration``
        #: the wall time of its timed part.
        self.probes: list[tuple[tuple[float, float], tuple[float, float], float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not probe time
        begin = mark()
        _ops(WARMUP_OPS)
        start = time.perf_counter()
        _ops(PROBE_OPS)
        duration = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.probes.append((begin, mark(), duration))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def fastest_probe(self) -> float:
        return min(duration for _, _, duration in self.probes)

    def seconds(self, begin: tuple[float, float], end: tuple[float, float]) -> float:
        """Corrected seconds of work between two :func:`mark` readings."""
        inside = [p for p in self.probes if begin[0] < p[0][0] and p[1][0] < end[0]]
        if not inside:
            raise ValueError("no probe fell inside the interval; it is too short to correct")

        def stretch(first, last, duration) -> float:
            wall = last[0] - first[0]
            cpu = min(max(0.0, last[1] - first[1]), wall)
            return cpu * REFERENCE_PROBE_S / duration + (wall - cpu)

        # The edges take the duration of their one neighbouring probe.
        total = stretch(begin, inside[0][0], inside[0][2])
        for (_, left_end, left), (right_begin, _, right) in zip(inside, inside[1:]):
            total += stretch(left_end, right_begin, (left + right) / 2.0)
        return total + stretch(inside[-1][1], end, inside[-1][2])
