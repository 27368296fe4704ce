"""Streaming Multiprocessor model.

Each SM runs the warps of its assigned TBs.  A warp is a simple
fetch-issue-stall machine over its trace: compute for ``gap`` cycles,
issue the memory transaction, and (for loads) stall until the response
returns.  Warps progress independently — the massive warp-level
parallelism is what keeps hundreds of requests in flight, which is the
regime the paper's entropy argument applies to.  GTO's relevant
effect, that co-resident TBs are consecutive in issue order, is
produced by the TB scheduler assigning TBs in identifier order.

The SM issues at most one memory instruction per ``issue_interval``
cycles (the coalescer port).  Issue is driven by one per-SM tick, not
per-warp events: a warp whose compute gap elapses joins the SM's ready
deque (preserving GTO age order), and a single tick callback per
``issue_interval`` drains one warp through the port/L1/MSHR logic.
Under port contention this costs one event per issue slot instead of
one retry event per waiting warp per slot.

Loads go through the per-SM L1 (write-through, no-write-allocate for
stores; allocate-on-fill with MSHR merging for loads).  L1 misses
become NoC transactions handled by the system; fills wake all merged
waiters and retry MSHR-full stalls.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Engine
from .cache import MSHRFile, MSHROutcome, SetAssociativeCache
from .config import GPUConfig
from .thread_block import TBContext, WarpContext

__all__ = ["SM", "MemRequest"]


class MemRequest:
    """An L1-miss read transaction travelling through NoC/LLC/DRAM."""

    __slots__ = ("sm_id", "line", "channel", "bank", "row", "slice", "issued_at")

    def __init__(
        self, sm_id: int, line: int, channel: int, bank: int, row: int,
        slice_id: int, issued_at: int,
    ) -> None:
        self.sm_id = sm_id
        self.line = line
        self.channel = channel
        self.bank = bank
        self.row = row
        self.slice = slice_id
        self.issued_at = issued_at

    def __repr__(self) -> str:
        return (
            f"MemRequest(sm={self.sm_id}, line=0x{self.line:x}, ch={self.channel}, "
            f"bank={self.bank}, row={self.row})"
        )


class SM:
    """One Streaming Multiprocessor with its private L1."""

    def __init__(
        self,
        engine: "Engine",
        config: GPUConfig,
        sm_id: int,
        send_read: Callable[[MemRequest], None],
        send_write: Callable[["SM", int, int, Callable, object], None],
    ) -> None:
        """*send_read* forwards an L1 miss; *send_write* takes
        ``(sm, slice_id, line, on_accepted, arg)`` for write-through
        stores — ``on_accepted(arg)`` fires when the store is accepted
        downstream (closure-free, like the engine's ``at``)."""
        self._engine = engine
        self._config = config
        self.sm_id = sm_id
        self._send_read = send_read
        self._send_write = send_write
        self.l1 = SetAssociativeCache(
            config.l1_sets, config.l1_ways, config.line_bytes, name=f"L1[{sm_id}]"
        )
        self.mshr = MSHRFile(config.l1_mshrs, name=f"L1-MSHR[{sm_id}]")
        self._port_free_at = 0
        # Warps whose compute gap has elapsed, waiting for the issue
        # port, in readiness (age) order.
        self._ready: Deque[WarpContext] = deque()
        # Warps parked on a full MSHR file; on_fill retries them.
        self._stalled: Deque[WarpContext] = deque()
        self._tick_armed = False
        # Pre-bound callbacks: scheduling through the engine then
        # allocates nothing per event.
        self._tick_cb = self._tick
        self._warp_ready_cb = self._warp_ready
        self._op_completed_cb = self._op_completed
        self.active_tbs: List[TBContext] = []
        self.on_tb_done: Optional[Callable[[TBContext], None]] = None
        # Statistics.
        self.instructions_issued = 0
        self.ops_completed = 0
        self.warp_stall_cycles = 0

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    @property
    def tb_count(self) -> int:
        return len(self.active_tbs)

    @property
    def warp_count(self) -> int:
        return sum(tb.n_warps for tb in self.active_tbs)

    @property
    def in_flight_ops(self) -> int:
        """Memory ops issued by this SM's warps and not yet completed.

        The sampled-fidelity trajectory sampler reads this as its
        issue-pressure signal: a polling segment with nothing in
        flight anywhere is ramp or drain, not steady state, and is
        excluded from the rate-drift fit.
        """
        return sum(
            warp.outstanding for tb in self.active_tbs for warp in tb.warps
        )

    def can_accept(self, tb: TBContext) -> bool:
        """Whether this SM has resources for another TB (the window bound)."""
        return (
            self.tb_count < self._config.max_tbs_per_sm
            and self.warp_count + tb.n_warps <= self._config.max_warps_per_sm
        )

    def assign_tb(self, tb: TBContext) -> None:
        """Start executing a TB on this SM."""
        if not self.can_accept(tb):
            raise RuntimeError(f"SM {self.sm_id} cannot accept TB {tb.tb_id}")
        tb.sm_id = self.sm_id
        tb.on_done = self._tb_done
        self.active_tbs.append(tb)
        started = False
        for warp in tb.warps:
            if warp.n_ops:
                started = True
                self._schedule_issue(warp)
        if not started:
            # A TB with no memory requests completes immediately.
            self._tb_done(tb)

    def _tb_done(self, tb: TBContext) -> None:
        if tb in self.active_tbs:
            self.active_tbs.remove(tb)
        if self.on_tb_done is not None:
            self.on_tb_done(tb)

    # ------------------------------------------------------------------
    # Warp issue pipeline
    # ------------------------------------------------------------------
    # A warp may keep up to ``max_outstanding_per_warp`` memory
    # instructions in flight (independent loads pipeline; the warp only
    # stalls on a dependent use).  ``warp.op`` is the next instruction
    # to issue; ``warp.outstanding`` counts issued-but-uncompleted ops;
    # ``warp.issue_pending`` marks that the warp is waiting for its
    # compute gap, sitting in the ready deque, or parked in the
    # MSHR-full queue, so completions never double-schedule.

    def _schedule_issue(self, warp: WarpContext) -> None:
        """Arrange for the warp's next op to issue after its compute gap."""
        warp.issue_pending = True
        gap = warp.gaps[warp.op]
        if gap:
            self._engine.at(self._engine.now + gap, self._warp_ready_cb, warp)
        else:
            self._warp_ready(warp)

    def _warp_ready(self, warp: WarpContext) -> None:
        """The warp's compute gap elapsed: queue it for the issue port."""
        warp.ready_at = self._engine.now
        self._ready.append(warp)
        if not self._tick_armed:
            self._arm_tick()

    def _arm_tick(self) -> None:
        """Schedule the SM's next issue-port tick (at port-free time)."""
        self._tick_armed = True
        now = self._engine.now
        free = self._port_free_at
        self._engine.at(free if free > now else now, self._tick_cb, None)

    def _tick(self, _arg: object) -> None:
        """One issue-port slot: drain the oldest ready warp through it."""
        self._tick_armed = False
        ready = self._ready
        if not ready:
            return
        now = self._engine.now
        if self._port_free_at > now:  # pragma: no cover - defensive
            self._arm_tick()
            return
        warp = ready.popleft()
        self.warp_stall_cycles += now - warp.ready_at
        self._port_free_at = now + self._config.issue_interval
        self._issue_op(warp)
        # _issue_op may have re-armed already (a gap-0 warp re-readies
        # synchronously via _issued -> _warp_ready); arming again here
        # would stack duplicate ticks that then compound each slot.
        if ready and not self._tick_armed:
            self._arm_tick()

    def _issue_op(self, warp: WarpContext) -> None:
        """Issue the warp's next op through L1/MSHR/store logic."""
        op = warp.op
        if op >= warp.n_ops:
            # A sampled-fidelity freeze moved the cursor past the end
            # while this issue was already scheduled: nothing left to
            # issue.  Never taken in exact mode.
            warp.issue_pending = False
            warp.maybe_retire()
            return
        self.instructions_issued += 1
        line = warp.lines[op]
        if warp.writes[op]:
            # Write-through store: the warp does not wait for DRAM, but
            # the slot is held until the store is *accepted* by its LLC
            # slice (store-queue backpressure) — a congested slice port
            # therefore throttles write-heavy warps.
            self.l1.write_through(line)
            warp.outstanding += 1
            self._send_write(self, warp.slices[op], line, self._op_completed_cb, warp)
            self._issued(warp)
            return
        if self.l1.try_read(line):
            warp.outstanding += 1
            self._engine.at(
                self._engine.now + self._config.l1_latency,
                self._op_completed_cb, warp,
            )
            self._issued(warp)
            return
        self.l1.stats.count_miss(is_write=False)
        outcome = self.mshr.allocate(line, warp)
        if outcome == MSHROutcome.FULL:
            # Park the warp; on_fill retries it. issue_pending stays
            # set so completions do not schedule a duplicate issue.
            self._stalled.append(warp)
            return
        warp.outstanding += 1
        if outcome == MSHROutcome.NEW:
            self._send_read(MemRequest(
                sm_id=self.sm_id,
                line=line,
                channel=warp.channels[op],
                bank=warp.banks[op],
                row=warp.rows[op],
                slice_id=warp.slices[op],
                issued_at=self._engine.now,
            ))
        # MERGED: the in-flight fetch wakes this warp too.
        self._issued(warp)

    def _issued(self, warp: WarpContext) -> None:
        """Bookkeeping after an op left the issue stage."""
        warp.advance()
        if not warp.issued_all and warp.outstanding < self._config.max_outstanding_per_warp:
            self._schedule_issue(warp)
        else:
            warp.issue_pending = False

    def _op_completed(self, warp: WarpContext) -> None:
        """A load returned / store was accepted: free the warp slot."""
        if warp.outstanding <= 0:
            raise RuntimeError(f"warp {warp.warp_id}: completion underflow")
        warp.outstanding -= 1
        self.ops_completed += 1
        if warp.done:
            warp.maybe_retire()
        elif (
            not warp.issued_all
            and not warp.issue_pending
            and warp.outstanding < self._config.max_outstanding_per_warp
        ):
            self._schedule_issue(warp)

    # ------------------------------------------------------------------
    # Fill path
    # ------------------------------------------------------------------
    def on_fill(self, line: int) -> None:
        """A missed line arrived from the LLC: install it and wake waiters."""
        self.l1.fill(line)
        for warp in self.mshr.complete(line):
            self._op_completed(warp)
        # MSHR entries freed: retry parked warps. A retried warp may
        # now hit (another warp's fill brought its line in).
        while self._stalled and not self.mshr.full:
            waiting = self._stalled.popleft()
            self._try_issue_parked(waiting)

    def _try_issue_parked(self, warp: WarpContext) -> None:
        """Retry a warp that was parked on a full MSHR file."""
        op = warp.op
        if op >= warp.n_ops:
            # Fast-forwarded past the end while parked (sampled mode).
            warp.issue_pending = False
            warp.maybe_retire()
            return
        line = warp.lines[op]
        if self.l1.try_read(line):
            warp.outstanding += 1
            self._engine.at(
                self._engine.now + self._config.l1_latency,
                self._op_completed_cb, warp,
            )
            self._issued(warp)
            return
        outcome = self.mshr.allocate(line, warp)
        if outcome == MSHROutcome.FULL:
            self._stalled.appendleft(warp)
            return
        warp.outstanding += 1
        if outcome == MSHROutcome.NEW:
            self._send_read(MemRequest(
                sm_id=self.sm_id,
                line=line,
                channel=warp.channels[op],
                bank=warp.banks[op],
                row=warp.rows[op],
                slice_id=warp.slices[op],
                issued_at=self._engine.now,
            ))
        self._issued(warp)

    def __repr__(self) -> str:
        return (
            f"SM({self.sm_id}, tbs={self.tb_count}, warps={self.warp_count}, "
            f"issued={self.instructions_issued})"
        )
