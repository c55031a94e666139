"""Calibration of measured times against the machine's speed of the moment.

The host this benchmark was written on runs the same work up to 1.6
times slower in spells that last from a few seconds to minutes; process
CPU time follows wall time, so the slowdown is the machine's, not the
scheduler's.  A `Calibrator` measures that speed while the program runs:
a one-shot SIGALRM timer interrupts the program every INTERVAL seconds,
and the handler runs `reference()`, a fixed piece of pure-Python work on
dicts, sets, tuples and ints, and times it.  Each measured segment (a
set-up or a round) then gives

    calibrated time = program time * NOMINAL / mean reference time,

the segment's time on a machine that runs `reference()` in NOMINAL
seconds.  Program time is wall time minus the time spent in the handler,
so the handler's own work is never charged to the program.  The
reference does not touch the program, so a change to the program moves
the calibrated time by the same share as the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.02     # seconds of wall time between reference runs
NOMINAL = 0.001     # seconds; the reference's time on the nominal machine


def reference() -> int:
    """Fixed pure-Python work of about a millisecond."""
    counts = {}
    total = 0
    for i in range(600):
        m = (i * 2654435761) & 0xFFFFFFFFFFFF
        key = (i & 255, m & 1023)
        counts[key] = counts.get(key, 0) + bin(m).count("1")
        total += len({i, i + 1, m & 63} & {1, 2, 3})
    return total + len(sorted(counts.items()))


class Calibrator:
    """Runs `reference()` every INTERVAL seconds between `start` and `stop`
    and keeps every reference time.  `clock()` is wall time minus the time
    spent in the reference, so intervals read from it are program time."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        # one-shot and re-armed here, so a handler never interrupts itself
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        """Begin a segment: run the reference once, so that every segment
        has a sample, and return the index of its first sample."""
        first = len(self.samples)
        self._tick()
        return first

    def factor(self, first: int) -> float:
        """NOMINAL over the mean reference time since `mark` gave `first`."""
        return NOMINAL / statistics.fmean(self.samples[first:])
