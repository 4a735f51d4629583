"""Machine pace, measured next to every operation.

The machine this benchmark was built on (2 vCPUs shared with other
tenants) changes speed by up to 2x within seconds: the median of a fixed
rational-arithmetic loop moved between 7.8 ms and 14.6 ms from one
2-second window to the next, in CPU time as much as in wall time, and the
tree-queries round took from 13.6 s to 20.0 s of wall time over ten seeds
that ask for the same work.  So the benchmark times a fixed reference
computation (a "mark") before and after every operation, and inside long
ones, and reports each stretch of wall time scaled by ``REFERENCE_S`` over
the mean duration of the two marks around it: seconds at the reference
pace.  The wall times themselves are reported next to the scaled ones.

While operations run, ``sample`` also takes a mark every ``INTERVAL_S`` of
CPU time from a ``SIGPROF`` handler, so long operations are scaled by the
pace during them rather than only at their ends.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time
from fractions import Fraction

# how long one mark takes at the reference pace: about its duration on the
# machine described above when no other tenant competes
REFERENCE_S = 0.004
INTERVAL_S = 0.1


_COPIED = tuple(range(50000))


def _reference_work() -> int:
    """Interpreter-bound and memory-bound work like the engine's: rational
    arithmetic and dictionary updates, then copies of a 400 KB tuple.  On
    the machine described above a contending tenant slows the two parts by
    different amounts, and the engine's workloads mix them differently:
    tree and LP work follows the arithmetic, the monitor's per-event prefix
    copies follow the copying."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 800):
        total += Fraction(i % 89 + 1, i % 13 + 2)
        seen[i % 257] = total.denominator % 1009
    copied = _COPIED
    for _ in range(6):
        copied = copied[1:] + (0,)
    return len(seen) + len(copied)


class Pace:
    def __init__(self):
        self.starts = []
        self.ends = []
        self._busy = False
        # called with each mark's duration; the traced run uses it to keep
        # marks out of the self time of the span they interrupted
        self.observer = None

    def mark(self) -> None:
        if self._busy:  # a sampled mark arriving during another mark
            return
        self._busy = True
        try:
            start = time.perf_counter()
            _reference_work()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            if self.observer is not None:
                self.observer(end - start)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sample(self):
        """Take marks from a CPU-time timer for the duration of the block."""
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.mark())
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def scaled(self, start: float, end: float) -> tuple:
        """(wall, scaled) seconds of [start, end], leaving out the marks
        taken inside it; each stretch between marks is scaled by the mean
        of the marks on either side of it."""
        lo = bisect.bisect_right(self.ends, start)  # first mark ending after start
        hi = bisect.bisect_left(self.starts, end)  # first mark starting at or after end
        cuts = [start] + [t for k in range(lo, hi) for t in (self.starts[k], self.ends[k])] + [end]
        wall = scaled = 0.0
        for j in range(0, len(cuts), 2):
            left, right = lo + j // 2 - 1, lo + j // 2
            near = [self.ends[k] - self.starts[k] for k in (left, right) if 0 <= k < len(self.starts)]
            stretch = cuts[j + 1] - cuts[j]
            wall += stretch
            scaled += stretch * REFERENCE_S * len(near) / sum(near)
        return wall, scaled
