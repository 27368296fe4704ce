"""Host-speed calibration.

The machines this benchmark runs on are shared, and their speed drifts
by tens of percent over seconds.  A fixed pure-Python probe -- a small
event loop over a heap, a dict and slotted objects, the kind of work
the simulator's engine does, but none of the repository's code -- runs
between and during timed work, and every host time is reported at a
reference speed: each stretch of time between two probes counts as

    seconds * REFERENCE_SECONDS / mean(the two probes' durations)

A slower moment stretches the probes and the work alike and the ratio
stays put; a change to the program moves the work only.  Time spent
inside probes never counts.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List, Tuple

PROBE_ITERATIONS = 10_000
# Calibrated times read as if the probe took this long.
REFERENCE_SECONDS = 0.012
# Probe interval while the simulator runs in the main thread.
SAMPLING_SECONDS = 0.25


class _Event:
    __slots__ = ("time", "seq")

    def __init__(self, time_: int, seq: int) -> None:
        self.time = time_
        self.seq = seq


def probe_seconds() -> float:
    """Wall time of one fixed probe."""
    started = time.perf_counter()
    heap: list = []
    table = {}
    done = 0
    for i in range(PROBE_ITERATIONS):
        event = _Event(i * 7 % 1009, i)
        table[i & 1023] = event
        heapq.heappush(heap, (event.time, i, event))
        if len(heap) > 64:
            done += heapq.heappop(heap)[2].seq & 1
    return time.perf_counter() - started


class Calibrator:
    """A timeline of probes, and host times calibrated against it.

    Probes are appended in time order: by :meth:`probe` calls between
    pieces of work, and by a timer while :meth:`sampling` is active.
    """

    def __init__(self) -> None:
        # (start, end, probe seconds) per probe, in time order.
        self._marks: List[Tuple[float, float, float]] = []
        self._starts: List[float] = []

    def probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        seconds = probe_seconds()
        self._marks.append((start, time.perf_counter(), seconds))
        self._starts.append(start)

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Probe every :data:`SAMPLING_SECONDS` from a timer signal.

        The handler runs in the main thread between bytecodes, so use
        it only while the main thread does the timed work itself."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLING_SECONDS, SAMPLING_SECONDS)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def calibrated(self, start: float, end: float) -> float:
        """Host seconds from *start* to *end* (``perf_counter`` values)
        at the reference speed, probes excluded."""
        first = bisect.bisect_left(self._starts, start)
        last = bisect.bisect_left(self._starts, end)
        total = 0.0
        cursor = start
        before = self._marks[first - 1] if first > 0 else None
        for mark in self._marks[first:last]:
            total += self._segment(cursor, mark[0], before, mark)
            cursor, before = mark[1], mark
        after = self._marks[last] if last < len(self._marks) else None
        return total + self._segment(cursor, end, before, after)

    @staticmethod
    def _segment(start, end, before, after) -> float:
        if end <= start:
            return 0.0
        probes = [mark[2] for mark in (before, after) if mark is not None]
        return (end - start) * REFERENCE_SECONDS / statistics.fmean(probes)

    def median_probe(self) -> float:
        return statistics.median(mark[2] for mark in self._marks)

    def __len__(self) -> int:
        return len(self._marks)
