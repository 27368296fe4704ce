"""Discrete-event simulation core.

A minimal, fast event engine: callbacks scheduled at integer cycle
timestamps, executed in time order (FIFO among same-cycle events, by
insertion sequence).  Every component of the GPU/DRAM model shares one
engine, so "time" is globally consistent.

Internally the queue is a hybrid calendar/bucket queue: events landing
on the same cycle are appended to that cycle's FIFO bucket, and a heap
orders only the *distinct* pending cycles.  A burst of N same-cycle
events therefore costs N list appends plus one heap push, instead of N
heap pushes of ``(time, seq, callback)`` tuples.

Scheduling contract
-------------------
One call schedules work: ``at(time, fn, arg)`` invokes ``fn(arg)`` at
absolute cycle *time*.  Relative scheduling writes ``now + delay``.
Callers pre-bind methods once (``self._cb = self._tick``) and pass the
varying state as *arg*, so scheduling an event allocates no lambda and
no bound method; ``arg`` may be any object, including ``None``, and a
callback with nothing to receive takes and ignores it.  Events on one
cycle run in FIFO order of scheduling.  A time before ``now`` raises
:class:`SimulationError`.

Times must be integral: an ``int``, or a float/numpy scalar whose value
is a whole number (normalized to ``int``).  A fractional time raises
:class:`SimulationError` instead of being silently truncated.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Engine", "SimulationError"]

Callback = Callable[[Any], None]


class SimulationError(RuntimeError):
    """Raised for scheduling bugs (events in the past, runaway loops)."""


class Engine:
    """A global-clock discrete-event engine.

    Examples
    --------
    >>> engine = Engine()
    >>> fired = []
    >>> engine.at(10, fired.append, "tick")
    >>> engine.run()
    >>> fired
    ['tick']
    """

    def __init__(self) -> None:
        self._now = 0
        # Calendar queue state: bucket per pending cycle, heap of the
        # distinct cycle numbers.  While a cycle's bucket is being
        # drained it stays in _buckets (so same-cycle scheduling
        # appends behind the cursor) but its time is off the heap.
        self._buckets: Dict[int, List[Any]] = {}
        self._times: List[int] = []
        self._active_bucket: Optional[List[Any]] = None
        self._active_index = 0
        self._scheduled = 0
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events not yet executed."""
        return self._scheduled - self._events_processed

    @property
    def idle(self) -> bool:
        """True when the queue is drained (and ``run`` is not active).

        ``run`` may be called again after it returns — the clock keeps
        advancing monotonically across calls.  This is the pause/resume
        contract the sampled-fidelity mode builds on: each detailed
        sample window schedules its work, drains to idle, and the next
        window resumes on the same warm engine (``until`` /
        ``max_events`` bound a window when a model misbehaves).
        """
        return not self._running and self._scheduled == self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _checked_time(self, time: Any) -> int:
        """Normalize *time* to an int; reject fractional or bogus values."""
        try:
            itime = int(time)
        except (TypeError, ValueError, OverflowError):
            raise SimulationError(
                f"event time must be an integral number, got {time!r}"
            ) from None
        if itime != time:
            raise SimulationError(
                f"event time must be integral, got {time!r}"
            )
        return itime

    def at(self, time: int, fn: Callback, arg: Any) -> None:
        """Schedule ``fn(arg)`` at absolute cycle *time*."""
        if type(time) is not int:
            time = self._checked_time(time)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time}, current time is {self._now}"
            )
        # Buckets are flat lists [fn0, arg0, fn1, arg1, ...].
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [fn, arg]
            heapq.heappush(self._times, time)
        else:
            bucket.append(fn)
            bucket.append(arg)
        self._scheduled += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Execute events until the queue drains (or limits hit).

        Returns the final simulation time.  *until* stops the clock at
        a cycle bound; *max_events* guards against runaway models.  The
        budget is counted down in integers — no float arithmetic on the
        hot path, and ``max_events=None`` means unlimited.

        ``run`` is not re-entrant: the bucket drain cursor is engine
        state, so calling ``run`` from inside a callback would replay
        the current cycle's already-dispatched events.  Nested calls
        raise :class:`SimulationError` instead.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        budget = -1 if max_events is None else max_events
        buckets = self._buckets
        times = self._times
        self._running = True
        try:
            while True:
                bucket = self._active_bucket
                if bucket is None:
                    if not times:
                        break
                    time = times[0]
                    if until is not None and time > until:
                        if until > self._now:
                            self._now = until
                        break
                    heapq.heappop(times)
                    self._now = time
                    bucket = buckets[time]
                    self._active_bucket = bucket
                    self._active_index = 0
                i = self._active_index
                try:
                    # The bucket may grow while draining (same-cycle
                    # scheduling from callbacks); re-checking len() each
                    # iteration picks those up in FIFO order.
                    while i < len(bucket):
                        fn = bucket[i]
                        arg = bucket[i + 1]
                        i += 2
                        self._events_processed += 1
                        fn(arg)
                        if budget >= 0:
                            budget -= 1
                            if budget <= 0 and self._scheduled > self._events_processed:
                                # Only a *pending* queue at exhaustion is an
                                # error: a model that finishes on exactly its
                                # last allowed event completed, it did not
                                # livelock.
                                raise SimulationError(
                                    f"exceeded max_events={max_events} (possible "
                                    f"livelock) at cycle {self._now}"
                                )
                finally:
                    # Persist the cursor so a propagating callback error
                    # leaves the queue resumable (the failing event is
                    # consumed, later events remain).
                    self._active_index = i
                del buckets[self._now]
                self._active_bucket = None
        finally:
            self._running = False
        return self._now
