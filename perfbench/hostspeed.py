"""The benchmark's clock: wall time scaled by the host's measured speed.

On a small shared host the same code runs at very different speeds from
minute to minute (on the 2-vCPU VM this benchmark was tuned on, a fixed
loop swings between two speeds about 1.9x apart, in phases lasting from
seconds to minutes), so raw wall time of identical work spreads by 25%
between runs.  The benchmark therefore times every operation with
``perf_counter`` and, in the gaps between operations, times a fixed
reference loop.  An operation's *calibrated* time is its wall time
multiplied by ``NOMINAL_S / reference``, where ``reference`` is the
median reference-loop time sampled around the operation: the time the
operation would take on this host at its nominal speed.

The reference loop lives here, not in the program, so no change to the
program can move it.  It imitates the simulator's work (slotted objects,
a deque, an event heap and a dict over a working set larger than the
L1 cache, built once), because a plain arithmetic loop, or one that
allocates its working set each time, slows down more than the simulator
does when the host is contended and over-corrects.
"""

import heapq
import statistics
import time
from collections import deque

#: Median time of :func:`reference_loop` on the tuning host at its
#: fast speed (CPython 3.11, 2-vCPU Xeon VM).
NOMINAL_S = 0.0055

#: Least wall time between two reference samples, and how far around an
#: operation samples still count for it.
SAMPLE_INTERVAL_S = 0.2
WINDOW_S = 0.3


class _Entry:
    __slots__ = ("seq", "addr", "ready", "value")

    def __init__(self, seq, addr):
        self.seq = seq
        self.addr = addr
        self.ready = False
        self.value = 0


def reference_memory(words=1 << 15):
    """The reference loop's working set, larger than the L1 cache."""
    return {addr * 8: addr for addr in range(words)}


def reference_loop(memory, steps=2000):
    """Fixed simulator-like work: issue, complete and retire entries."""
    span = len(memory) * 8
    queue = deque()
    events = []
    retired = 0
    for cycle in range(steps):
        entry = _Entry(cycle, (cycle * 2654435761) % span & ~7)
        queue.append(entry)
        heapq.heappush(events, (cycle + cycle % 7 + 1, cycle, entry))
        while events and events[0][0] <= cycle:
            _when, _seq, done = heapq.heappop(events)
            done.value = memory.get(done.addr, 0) + 1
            done.ready = True
        while queue and queue[0].ready:
            head = queue.popleft()
            memory[head.addr] = head.value
            retired += 1
    return retired


class HostClock:
    """Wall clock plus reference samples taken between operations."""

    name = "perf_counter, calibrated by a reference loop"

    def __init__(self):
        self.now = time.perf_counter
        self.samples = []       # (midpoint, reference seconds)
        self._last = None
        self._memory = reference_memory()

    def sample(self):
        start = self.now()
        reference_loop(self._memory)
        end = self.now()
        self.samples.append(((start + end) / 2.0, end - start))
        self._last = end

    def gap(self):
        """Between operations: sample if the last sample is old."""
        if self._last is None or self.now() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    def calibrate(self, start, end):
        """Calibrated seconds of the operation that ran from ``start`` to
        ``end``; call once samples after ``end`` exist."""
        near = [ref for mid, ref in self.samples
                if start - WINDOW_S <= mid <= end + WINDOW_S]
        if not near:
            near = [min(self.samples,
                        key=lambda s: min(abs(s[0] - start),
                                          abs(s[0] - end)))[1]]
        return (end - start) * NOMINAL_S / statistics.median(near)
