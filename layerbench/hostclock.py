"""Host seconds converted to reference seconds, so that timings from a
shared, contended host compare across runs.

On a host whose cores are shared with other tenants the same replay
runs up to twice as slow for stretches of 0.1-2 s.  A ``HostClock``
measures that as it happens: every ``PERIOD_S`` of wall time a
``SIGALRM`` handler runs a small fixed pure-Python kernel (an LRU
set-associative cache over an LCG address stream, the same kind of
interpreter work as the simulator's hot loops) and records how long it
took.  Host time in a window ``[start, end]`` becomes reference time as

    (wall time - probe time in the window) x mean(REF_TICK_S / tick)

over the ticks in the window: the time the same work takes on the
reference host, an uncontended core of the 2.1 GHz Xeon the benchmark
was written on, where one kernel call takes ``REF_TICK_S``.  The kernel
and ``REF_TICK_S`` define the unit; changing either changes every
recorded figure.

The clock is independent of the simulator, so a change to the program
moves reference times exactly as much as host times.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from statistics import mean, median
from typing import List, Tuple

#: Wall time between probe ticks.
PERIOD_S = 0.005
#: Kernel iterations per tick (about 0.12-0.3 ms, 2.5-5% of a period).
KERNEL_STEPS = 400
#: One kernel call on the reference host, uncontended.
REF_TICK_S = 1.2e-4
#: Fewest ticks a window's speed is taken over; shorter windows borrow
#: the nearest ticks around them.
MIN_TICKS = 8


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Fixed probe work: an 8-way, 64-set LRU cache over an LCG."""
    sets: List[List[int]] = [[] for _ in range(64)]
    owner = {}
    state = 12345
    hits = 0
    for step in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        block = (state >> 6) & 0xFFF
        ways = sets[block & 63]
        if block in ways:
            ways.remove(block)
            ways.append(block)
            hits += 1
        else:
            if len(ways) >= 8:
                owner.pop(ways.pop(0), None)
            ways.append(block)
            owner[block] = step
    return hits


class HostClock:
    """Ticks the probe kernel while running; converts windows of
    ``time.perf_counter()`` readings into reference seconds."""

    def __init__(self) -> None:
        #: (start, duration) of every tick, in ``perf_counter`` time.
        self.ticks: List[Tuple[float, float]] = []
        self._starts: List[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.ticks.append((start, time.perf_counter() - start))
        self._starts.append(start)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        # Restart interrupted system calls rather than fail them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def ref_s(self, start: float, end: float) -> float:
        """Reference seconds of the work done in ``[start, end]``."""
        low = bisect_left(self._starts, start)
        high = bisect_right(self._starts, end)
        probe_s = sum(duration for _, duration in self.ticks[low:high])
        if high - low < MIN_TICKS:
            low = max(0, min(low - MIN_TICKS // 2,
                             len(self.ticks) - MIN_TICKS))
            high = min(len(self.ticks), low + MIN_TICKS)
        if high <= low:
            return end - start
        speed = mean(REF_TICK_S / duration
                     for _, duration in self.ticks[low:high])
        return max(0.0, end - start - probe_s) * speed

    def speed(self) -> float:
        """Median host speed over every tick, 1.0 at the reference."""
        if not self.ticks:
            return 0.0
        return REF_TICK_S / median(duration for _, duration in self.ticks)
