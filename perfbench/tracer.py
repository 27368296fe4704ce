"""Span tracer for the benchmark's traced run.

Wraps public entry points of the simulator's layers from the outside:
each wrapper records one span per call (count, total seconds, self
seconds) and nothing under ``src/`` changes.  A span's self time is its
duration minus the time covered by the spans it caused, tracked with a
per-thread stack so the serve workload's server, job and client threads
never charge each other.

Wrappers must be installed before any ``GPUSystem`` is built, because
the system pre-binds its components' callbacks at construction.
Module-level functions are patched in every ``repro`` module that
imported them by name, so call sites see the wrapper too.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute path).  The span name is what the
# benchmark's per-layer metrics aggregate over.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("engine.run", "repro.sim.engine", "Engine.run"),
    ("sm.assign_tb", "repro.gpu.sm", "SM.assign_tb"),
    ("sm.on_fill", "repro.gpu.sm", "SM.on_fill"),
    ("noc.send", "repro.gpu.noc", "Crossbar.send"),
    ("llc.on_read", "repro.gpu.llc", "LLCSlice.on_read"),
    ("llc.on_write", "repro.gpu.llc", "LLCSlice.on_write"),
    ("llc.on_dram_fill", "repro.gpu.llc", "LLCSlice.on_dram_fill"),
    ("dram.submit_many", "repro.dram.system", "DRAMSystem.submit_many"),
    ("dram.select", "repro.dram.scheduler", "FRFCFSScheduler.select"),
    ("workloads.build", "repro.specs", "WorkloadSpec.build"),
    ("core.scheme_build", "repro.specs", "SchemeSpec.build"),
    ("core.entropy", "repro.core.entropy", "application_entropy_profile"),
    ("core.map", "repro.core.schemes", "MappingScheme.map"),
    ("core.map_trace", "repro.core.schemes", "MappingScheme.map_trace"),
    ("core.decode_fields", "repro.core.mapper", "decode_fields"),
    ("fidelity.plan_auto", "repro.sim.gpu_system", "plan_auto"),
    ("replay.replay_ops", "repro.sim.replay", "replay_ops"),
    ("replay.build_stream", "repro.sim.replay", "build_kernel_stream"),
    ("runner.cache_get", "repro.runner.cache", "ResultCache.get"),
    ("runner.cache_put", "repro.runner.cache", "ResultCache.put"),
    ("runner.state_get", "repro.runner.state_cache", "StateCache.get"),
    ("runner.state_put", "repro.runner.state_cache", "StateCache.put"),
    ("runner.report_from_results", "repro.runner.report", "report_from_results"),
    ("runner.render_report", "repro.runner.report", "render_report"),
    ("client.submit", "repro.client", "ReproClient.submit"),
    ("client.status", "repro.client", "ReproClient.status"),
    ("client.report_text", "repro.client", "ReproClient.report_text"),
)


class SpanStats:
    """Accumulated spans of one name: calls, total and self seconds, and
    the calls that returned None (a cache miss, for the cache getters)."""

    __slots__ = ("calls", "total", "self_time", "none_results")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.none_results = 0


class _ThreadState:
    """One thread's span stack and its own span totals (no lock on the
    hot path; totals from all threads are summed at snapshot time)."""

    __slots__ = ("stack", "spans")

    def __init__(self) -> None:
        self.stack: List[float] = []
        self.spans: Dict[str, SpanStats] = {
            name: SpanStats() for name, _, _ in ENTRY_POINTS
        }


class Tracer:
    """Installs span wrappers on :data:`ENTRY_POINTS` and removes them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        # (owner object, attribute, original) for every patched slot.
        self._patched: List[Tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _state(self) -> _ThreadState:
        state = _ThreadState()
        self._local.state = state
        with self._lock:
            self._threads.append(state)
        return state

    def _wrap(self, name: str, fn: Callable) -> Callable:
        local = self._local
        new_state = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            stack.append(0.0)
            started = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats = state.spans[name]
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - children
                if result is None:
                    stats.none_results += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point (idempotent)."""
        if self._patched:
            return
        for name, module_name, path in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            for other in list(sys.modules.values()):
                if (
                    getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, path, None) is original
                ):
                    self._patch(other, path, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------
    def snapshot(self) -> Dict[str, SpanStats]:
        """Span totals summed over every thread that recorded any.

        Read between phases, while no traced call is in progress."""
        out = {name: SpanStats() for name, _, _ in ENTRY_POINTS}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, stats in state.spans.items():
                total = out[name]
                total.calls += stats.calls
                total.total += stats.total
                total.self_time += stats.self_time
                total.none_results += stats.none_results
        return out


def combine(
    a: Dict[str, SpanStats], b: Dict[str, SpanStats], sign: int = 1
) -> Dict[str, SpanStats]:
    """``a + sign * b``, span by span."""
    out = {}
    for name, x in a.items():
        y = b[name]
        total = SpanStats()
        total.calls = x.calls + sign * y.calls
        total.total = x.total + sign * y.total
        total.self_time = x.self_time + sign * y.self_time
        total.none_results = x.none_results + sign * y.none_results
        out[name] = total
    return out


def scaled(spans: Dict[str, SpanStats], divisor: int) -> Dict[str, SpanStats]:
    """Spans per one of *divisor* identical phases (counts rounded)."""
    out = {}
    for name, x in spans.items():
        per = SpanStats()
        per.calls = round(x.calls / divisor)
        per.total = x.total / divisor
        per.self_time = x.self_time / divisor
        per.none_results = round(x.none_results / divisor)
        out[name] = per
    return out


def set_tracing(tracer: Optional["Tracer"], on: bool) -> None:
    """Install or remove *tracer*'s wrappers (no-op without a tracer)."""
    if tracer is None:
        return
    if on:
        tracer.install()
    else:
        tracer.uninstall()
