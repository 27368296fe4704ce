"""The parallel sweep runner.

:class:`SweepRunner` fans a list of :class:`RunConfig` out across
worker processes (``concurrent.futures.ProcessPoolExecutor``) with an
on-disk :class:`~repro.runner.cache.ResultCache` in front and an
in-memory memo behind it:

1. every config is first looked up in the in-process memo,
2. then in the on-disk cache (if one is configured),
3. remaining misses are deduplicated and executed — inline when
   ``workers <= 1``, otherwise on the pool — and written back to the
   cache together with a runtime-metadata sidecar.

Results are returned **in input order** regardless of which worker
finished first, so a sweep's output is byte-for-byte identical whether
it ran on 1 worker or 16 (and whether it was served cold or from
cache): ordering is positional and every run is a deterministic pure
function of its config.

Dispatch
--------
Each cold config becomes one pool future, submitted in input order.
At most ``workers`` futures are in flight; the rest wait in a backlog
and are submitted as running ones finish, so every future starts
running when it is submitted and its timeout counts only its own run.
When a progress callback is set, each miss also gets a runtime
estimate (recorded wall seconds from the cache's metadata sidecars
when available, a static scale-based guess otherwise) that feeds the
ETA.  Dispatch order only decides *execution*; reported results never
change.

Failure semantics
-----------------
The runner survives every failure class a real fleet hits, governed by
a :class:`~repro.runner.faults.FailurePolicy`:

* **Worker exceptions** never abort the sweep: the worker reports the
  failing config individually (the rest of a probe batch completes), and
  the parent retries it with exponential backoff and deterministic
  jitter up to ``max_retries`` times before quarantining it.
* **Worker death** (OOM kill, segfault — surfacing as
  ``BrokenProcessPool``) rebuilds the pool automatically.  The
  in-flight configs are *bisected*: re-run as halves, probed one group
  at a time so the next crash pins blame precisely, until the poisoned
  config is isolated, charged, and eventually quarantined.  A global
  rebuild budget stops a crash-looping environment from spinning
  forever.
* **Hung runs** are bounded by ``policy.timeout``: each future gets a
  per-run wall-clock deadline enforced by the parent (a hung
  simulation never returns on its own); on expiry the pool is killed
  and rebuilt, innocent in-flight work is resubmitted uncharged, and
  the timed-out configs are retried / quarantined like crashes.
* **Cache I/O errors** degrade, never abort: a failed record write is
  warned about once and the sweep continues unpersisted.
* A **quarantined** config becomes a structured
  :class:`~repro.runner.faults.RunFailure` (config key, kind, error
  text, attempts, wall) in :meth:`SweepRunner.run_outcomes`'s result;
  :meth:`SweepRunner.run_many` is the strict form that raises
  :class:`~repro.runner.faults.SweepFailure` instead — after every
  healthy config completed, not fail-fast.

Retries and timeouts never alter a result, only whether one is
produced: a run that eventually succeeds is byte-identical to one that
succeeded first try.  Timeout enforcement needs the pool (inline
execution cannot interrupt itself); inline runs still retry
exceptions.  All recovery paths are testable deterministically through
:class:`~repro.runner.faults.FaultPlan` injection
(``REPRO_FAULT_INJECT`` / the ``faults=`` argument).

Claims
------
With ``claims=True`` (and a cache configured), the runner participates
in the cache's claim-file protocol: before executing a miss it tries
to atomically claim the key; keys claimed by a concurrent process
(e.g. an overlapping sweep sharing the cache dir) are *polled* for
instead of re-run, falling back to local execution when the peer's
claim goes stale (``claim_ttl``) or the wait exceeds ``claim_wait``.
Correctness never depends on claims — they only avoid duplicate work.
Claims this runner owns are released exactly once, nonce-verified, so
a claim released-then-reacquired by a peer is never deleted out from
under that peer.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import os
import time
import warnings
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..sim.fidelity import fidelity_kind
from ..sim.results import SimulationResult
from .cache import CacheStats, ResultCache
from .config import RunConfig
from .faults import FailurePolicy, FaultPlan, RunFailure, SweepFailure
from .worker import _state_cache_for, execute_config_batch, process_context

__all__ = [
    "SweepRunner",
    "SweepOutcome",
    "SweepStats",
    "SweepProgress",
    "coerce_workers",
    "default_workers",
    "estimate_runtimes",
]


def coerce_workers(value, source: str = "workers") -> int:
    """A validated worker count from any plausible input.

    One coercion for every path a worker count enters the system —
    the ``SweepRunner(workers=...)`` argument, ``$REPRO_WORKERS``, and
    server flags — so they all agree: non-integer values (``"4x"``,
    ``2.5``, ``True``) are rejected with a message naming *source*;
    non-positive integers clamp to 1 (serial inline execution), since
    "no parallelism" is what zero workers can only mean.
    """
    if isinstance(value, bool):
        raise ValueError(f"{source} must be an integer, got {value!r}")
    if isinstance(value, int):
        count = value
    elif isinstance(value, float):
        if not value.is_integer():
            raise ValueError(
                f"{source} must be a whole number of worker processes, "
                f"got {value!r}"
            )
        count = int(value)
    elif isinstance(value, str):
        try:
            count = int(value.strip())
        except ValueError:
            raise ValueError(
                f"{source} must be an integer, got {value!r}"
            ) from None
    else:
        raise ValueError(
            f"{source} must be an integer, got {type(value).__name__}"
        )
    return max(1, count)


def default_workers() -> int:
    """Worker count when the caller does not choose.

    Honors the ``REPRO_WORKERS`` environment variable (so CI and shard
    launchers can cap process fan-out without plumbing flags), falling
    back to one worker per CPU.  Always at least 1.
    """
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        return coerce_workers(env, source="REPRO_WORKERS")
    return max(1, os.cpu_count() or 1)


@dataclass
class SweepStats:
    """Accounting for one :class:`SweepRunner` instance.

    ``memory_hits`` are served from the in-process memo, ``cache_hits``
    from disk (including results stolen from a concurrent claimant),
    ``executed`` were actually simulated.  ``requested`` is the total
    number of configs asked for, so with no failures ``requested ==
    memory_hits + cache_hits + executed`` after every call (duplicate
    configs inside one call count as memory hits).  ``retries`` counts
    re-executions the failure policy scheduled; ``failed`` counts
    configs quarantined as :class:`~repro.runner.faults.RunFailure`.
    """

    requested: int = 0
    memory_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    failed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "requested": self.requested,
            "memory_hits": self.memory_hits,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "retries": self.retries,
            "failed": self.failed,
        }


@dataclass(frozen=True)
class SweepProgress:
    """One live-progress tick (misses only; hits complete instantly)."""

    done: int
    total: int
    elapsed_seconds: float
    eta_seconds: float


@dataclass
class SweepOutcome:
    """What a fault-tolerant sweep produced.

    ``results[i]`` is the :class:`~repro.sim.results.SimulationResult`
    of ``configs[i]``, or None when that config was quarantined;
    ``failures`` holds one :class:`~repro.runner.faults.RunFailure`
    per distinct quarantined config, in first-seen order.
    """

    results: List[Optional[SimulationResult]]
    failures: List[RunFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# Estimated seconds per unit of trace scale when the cache holds no
# runtime metadata at all.
_FALLBACK_SECONDS_PER_SCALE = 1.0

# Relative wall clock of each fidelity family against exact mode.
# Sampled/auto runs fast-forward most of their detailed cycles, so
# exact-mode sidecar evidence grossly inflates their estimates (and
# vice versa); when a config's own family has no recorded evidence,
# cross-family rates are rescaled by this documented discount instead
# of being used raw.  Deliberately coarse — estimates only feed the
# ETA, never results.
_FIDELITY_WALL_DISCOUNT = {"exact": 1.0, "sampled": 0.5, "auto": 0.5}


def _fidelity_discount(kind: str) -> float:
    return _FIDELITY_WALL_DISCOUNT.get(kind, 1.0)


def estimate_runtimes(
    configs: Sequence[RunConfig],
    metas: Sequence[Dict[str, object]],
) -> List[float]:
    """Estimated wall seconds for each config, best evidence first.

    1. mean recorded wall of runs with the same (benchmark, scheme,
       scale, n_sms, memory, fidelity kind) — i.e. the same run under
       an older cache schema,
    2. mean recorded wall-per-scale of the same benchmark and fidelity
       kind, times the config's scale,
    3. the same benchmark's evidence from another fidelity kind,
       rescaled by the :data:`_FIDELITY_WALL_DISCOUNT` ratio (exact
       evidence preferred — the most abundant, least noisy family),
    4. the same two steps over global (all-benchmark) rates,
    5. a static ``scale * n_sms`` guess, times the kind's discount.

    Sidecars recorded before the ``fidelity`` field existed are
    counted as exact — that is what produced them.

    Pure and deterministic: estimates only feed the progress ETA,
    never results.
    """
    exact: Dict[Tuple[str, str, float, int, str, str], List[float]] = {}
    bench_rates: Dict[str, Dict[str, List[float]]] = {}
    global_rates: Dict[str, List[float]] = {}
    for meta in metas:
        try:
            wall = float(meta["wall_seconds"])  # type: ignore[arg-type]
            benchmark = str(meta["benchmark"])
            scale = float(meta["scale"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            continue
        kind = str(meta.get("fidelity") or "exact")
        key = (
            benchmark, str(meta.get("scheme")), scale,
            int(meta.get("n_sms", 0) or 0), str(meta.get("memory")), kind,
        )
        exact.setdefault(key, []).append(wall)
        if scale > 0:
            bench_rates.setdefault(benchmark, {}).setdefault(
                kind, []
            ).append(wall / scale)
            global_rates.setdefault(kind, []).append(wall / scale)

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    def rate_for(table: Dict[str, List[float]], kind: str) -> Optional[float]:
        """Per-scale rate for *kind*, converting cross-kind evidence by
        the fidelity discount when the kind itself has none."""
        rates = table.get(kind)
        if rates:
            return mean(rates)
        for other in ("exact", *sorted(table)):
            rates = table.get(other)
            if rates and other != kind:
                return (
                    mean(rates)
                    * _fidelity_discount(kind) / _fidelity_discount(other)
                )
        return None

    estimates = []
    for config in configs:
        kind = fidelity_kind(config.fidelity)
        key = (
            config.benchmark_name, config.scheme_name, config.scale,
            config.n_sms, config.memory, kind,
        )
        if key in exact:
            estimates.append(mean(exact[key]))
            continue
        rate = rate_for(bench_rates.get(config.benchmark_name, {}), kind)
        if rate is None:
            rate = rate_for(global_rates, kind)
        if rate is not None:
            estimates.append(rate * config.scale)
        else:
            estimates.append(
                _FALLBACK_SECONDS_PER_SCALE * config.scale * config.n_sms
                * _fidelity_discount(kind)
            )
    return estimates


@dataclass
class _Flight:
    """One in-flight pool future: which configs, when, and its deadline."""

    indices: List[int]
    submitted: float
    deadline: Optional[float]
    probe: bool = False


class SweepRunner:
    """Runs batches of configs with caching, parallelism and fault tolerance."""

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir=None,
        context=None,
        claims: bool = False,
        claim_ttl: float = 1800.0,
        claim_poll: float = 0.25,
        claim_wait: Optional[float] = None,
        progress: Optional[Callable[[SweepProgress], None]] = None,
        policy: Optional[FailurePolicy] = None,
        faults: Union[FaultPlan, str, None] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        """*context* is the :class:`~repro.runner.worker.RunContext` used
        for inline execution (``workers <= 1``); it defaults to the
        process-wide one.  Pool workers always use their own process's
        context.  See the module docstring for the claim parameters;
        *progress* is called with a :class:`SweepProgress` after every
        completed miss.  *policy* governs retries/timeouts
        (defaults to :class:`~repro.runner.faults.FailurePolicy`);
        *faults* is a fault-injection plan or spec string, defaulting
        to ``$REPRO_FAULT_INJECT`` so chaos runs need no plumbing.

        *state_dir* locates the warmed-state cache
        (:mod:`repro.runner.state_cache`) that auto-fidelity runs share
        their scheme-independent replay streams through.  It defaults
        to ``<cache_dir>/state`` when a result cache is configured;
        pass an explicit directory to use one without the other (e.g.
        benchmarks that must re-execute results but still measure
        warmed-state reuse), or ``""`` to disable it."""
        self.workers = coerce_workers(workers) if workers is not None else 1
        self.policy = policy if policy is not None else FailurePolicy()
        self.faults = (
            FaultPlan.parse(faults) if faults is not None else FaultPlan.from_env()
        )
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir, faults=self.faults)
            if cache_dir is not None else None
        )
        if state_dir is None and cache_dir is not None:
            state_dir = str(Path(cache_dir) / "state")
        self.state_dir: Optional[str] = state_dir or None
        self.stats = SweepStats()
        self.claims = bool(claims) and self.cache is not None
        self.claim_ttl = float(claim_ttl)
        self.claim_poll = float(claim_poll)
        self.claim_wait = float(claim_wait) if claim_wait is not None else float(claim_ttl)
        self._progress = progress
        self._memory: Dict[str, SimulationResult] = {}
        self._context = context
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._cache_warned = False
        # Sidecar snapshot shared by the execute calls of one run_many
        # batch (claims mode executes in two waves; scan disk once).
        self._meta_scan: Optional[List[Dict[str, object]]] = None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_one(self, config: RunConfig) -> SimulationResult:
        return self.run_many([config])[0]

    def run_many(self, configs: Sequence[RunConfig]) -> List[SimulationResult]:
        """Run every config; results in input order.  Strict: raises
        :class:`~repro.runner.faults.SweepFailure` if any config was
        quarantined — but only after every healthy config completed,
        so a retried-and-recovered sweep returns normally."""
        outcome = self.run_outcomes(configs)
        if outcome.failures:
            raise SweepFailure(outcome.failures)
        return outcome.results  # type: ignore[return-value]

    def run_outcomes(self, configs: Sequence[RunConfig]) -> SweepOutcome:
        """Run every config (cache-aware, parallel, fault-tolerant).

        Never raises for per-run failures: quarantined configs come
        back as ``None`` results plus structured ``failures`` entries.
        Failed configs are *not* memoized — a later call retries them
        afresh.
        """
        configs = list(configs)
        self.stats.requested += len(configs)
        keys = [c.config_hash() for c in configs]
        results: List[Optional[SimulationResult]] = [None] * len(configs)

        # 1-2: memo, then disk.  Misses are deduplicated by hash so one
        # config requested twice in a batch is simulated once.
        miss_order: List[str] = []
        miss_config: Dict[str, RunConfig] = {}
        for i, (config, key) in enumerate(zip(configs, keys)):
            if key in self._memory:
                results[i] = self._memory[key]
                self.stats.memory_hits += 1
                continue
            if key in miss_config:
                self.stats.memory_hits += 1
                continue
            if self.cache is not None:
                cached = self.cache.get(config)
                if cached is not None:
                    self._memory[key] = cached
                    results[i] = cached
                    self.stats.cache_hits += 1
                    continue
            miss_order.append(key)
            miss_config[key] = config

        # 3: execute the misses.  ``wall`` is None when a concurrent
        # claimant computed the result and we only read it back;
        # ``persisted`` is True when the claims path already wrote the
        # record (before releasing its claim).
        failures: Dict[str, RunFailure] = {}
        if miss_order:
            self._meta_scan = None  # fresh sidecar snapshot per batch
            computed = self._execute([miss_config[key] for key in miss_order])
            for key, entry in zip(miss_order, computed):
                if isinstance(entry, RunFailure):
                    failures[key] = entry
                    self.stats.failed += 1
                    continue
                result, wall, persisted = entry
                self._memory[key] = result
                if wall is None:
                    self.stats.cache_hits += 1
                else:
                    self.stats.executed += 1
                    if self.cache is not None and not persisted:
                        try:
                            self.cache.put(
                                miss_config[key], result, wall_seconds=wall
                            )
                        except OSError as error:
                            self._cache_degraded(error)

        # Fill remaining slots (memo now has every surviving key).
        for i, key in enumerate(keys):
            if results[i] is None and key in self._memory:
                results[i] = self._memory[key]
        return SweepOutcome(
            results=results,
            failures=[failures[key] for key in miss_order if key in failures],
        )

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------
    # Each executed entry is (result, wall_seconds, persisted) — wall is
    # None for results stolen from a peer, persisted is True when the
    # record already reached the cache (claims write before releasing) —
    # or a RunFailure when the config was quarantined.
    _Executed = Tuple[SimulationResult, Optional[float], bool]
    _Entry = Union[_Executed, RunFailure]

    def _execute(self, configs: List[RunConfig]) -> List["SweepRunner._Entry"]:
        if self.claims:
            return self._execute_with_claims(configs)
        return self._execute_batch(configs)

    def _estimates(self, configs: Sequence[RunConfig]) -> List[float]:
        if self._meta_scan is None:
            self._meta_scan = (
                self.cache.runtime_metadata() if self.cache is not None else []
            )
        return estimate_runtimes(configs, self._meta_scan)

    def _emit_progress(self, progress: SweepProgress) -> None:
        """Invoke the user's progress callback, defusing it on error.

        A raising callback is a reporting problem, not an execution
        problem: it is warned about once and disabled rather than
        allowed to abort a long sweep mid-flight.
        """
        if self._progress is None:
            return
        try:
            self._progress(progress)
        except Exception as error:  # noqa: BLE001 — user code, contained
            warnings.warn(
                f"progress callback raised {type(error).__name__}: {error}; "
                f"disabling progress reporting for this runner",
                RuntimeWarning,
                stacklevel=2,
            )
            self._progress = None

    def _cache_degraded(self, error: OSError) -> None:
        """Warn once that record writes are failing; results still flow."""
        if self._cache_warned:
            return
        self._cache_warned = True
        warnings.warn(
            f"result-cache write failed ({error}); continuing without "
            f"persisting — re-runs will recompute instead of hitting cache",
            RuntimeWarning,
            stacklevel=2,
        )

    def _failure(
        self, config: RunConfig, key: str, kind: str, error: str,
        attempts: int, wall: float,
    ) -> RunFailure:
        return RunFailure(
            key=key,
            benchmark=config.benchmark_name,
            scheme=config.scheme_name,
            config=config.to_dict(),
            kind=kind,
            error=error,
            attempts=attempts,
            wall_seconds=wall,
        )

    def _execute_batch(
        self, configs: List[RunConfig]
    ) -> List["SweepRunner._Entry"]:
        """Simulate *configs*, returning entries in input order."""
        n = len(configs)
        use_pool = self.workers > 1 and (
            n > 1 or self.policy.timeout is not None
        )
        # Estimates cost a sidecar scan; only pay it when the ETA
        # callback consumes them.
        if self._progress is not None:
            estimates = self._estimates(configs)
        else:
            estimates = [0.0] * n
        if not use_pool:
            return self._execute_inline(configs, estimates)
        return self._execute_pool(configs, estimates)

    def _execute_inline(
        self, configs: List[RunConfig], estimates: List[float]
    ) -> List["SweepRunner._Entry"]:
        """Serial in-process execution with retries (no timeout: inline
        execution cannot interrupt itself — use workers > 1 for that)."""
        context = self._context if self._context is not None else process_context()
        state_cache = _state_cache_for(self.state_dir)
        policy = self.policy
        plan = self.faults
        started = time.perf_counter()
        out: List[SweepRunner._Entry] = []
        done = 0
        remaining = sum(estimates)
        for config, estimate in zip(configs, estimates):
            key = config.config_hash()
            attempt = 0
            wall_total = 0.0
            while True:
                run_started = time.perf_counter()
                try:
                    if plan is not None:
                        plan.apply(
                            config.benchmark_name, config.scheme_name,
                            key, attempt, allow_exit=False,
                        )
                    result = context.execute(config, state_cache=state_cache)
                except Exception as error:  # noqa: BLE001 — retried/reported
                    wall_total += time.perf_counter() - run_started
                    attempt += 1
                    if attempt >= policy.max_attempts:
                        out.append(self._failure(
                            config, key, "exception",
                            f"{type(error).__name__}: {error}",
                            attempt, wall_total,
                        ))
                        break
                    self.stats.retries += 1
                    time.sleep(policy.backoff_seconds(key, attempt))
                    continue
                out.append((result, time.perf_counter() - run_started, False))
                break
            done += 1
            remaining -= estimate
            self._emit_progress(SweepProgress(
                done=done, total=len(configs),
                elapsed_seconds=time.perf_counter() - started,
                eta_seconds=remaining / max(1, self.workers),
            ))
        return out

    def _execute_pool(
        self, configs: List[RunConfig], estimates: List[float]
    ) -> List["SweepRunner._Entry"]:
        """Parallel execution with the full failure policy.

        The orchestration loop tracks every config through exactly one
        place at a time — an in-flight future, the retry heap, the
        probe queue (crash bisection), the resubmission backlog, or a
        final entry — so the loop terminates exactly when all configs
        are resolved.  See the module docstring for the recovery
        rules.
        """
        n = len(configs)
        policy = self.policy
        keys = [c.config_hash() for c in configs]
        payloads = [c.to_dict() for c in configs]
        fault_spec = self.faults.spec if self.faults is not None else None

        entries: List[Optional[SweepRunner._Entry]] = [None] * n
        attempts = [0] * n  # failed attempts charged so far, per config
        fail_wall = [0.0] * n
        started = time.perf_counter()
        done_count = 0
        remaining_estimate = sum(estimates)

        pending: Dict[concurrent.futures.Future, _Flight] = {}
        retry_heap: List[Tuple[float, int]] = []  # (ready time, index)
        probe_queue: deque = deque()  # suspect groups, probed one at a time
        backlog: deque = deque()  # innocent groups awaiting resubmission
        rebuilds = 0
        # Enough rebuilds for every config to crash out individually,
        # with bisection overhead; beyond this the environment itself
        # is killing workers and retrying is harm, not help.
        rebuild_budget = max(8, 2 * policy.max_attempts * n)

        def tick() -> None:
            self._emit_progress(SweepProgress(
                done=done_count, total=n,
                elapsed_seconds=time.perf_counter() - started,
                eta_seconds=remaining_estimate / max(1, self.workers),
            ))

        def finish_ok(i: int, payload: Dict[str, object]) -> None:
            nonlocal done_count, remaining_estimate
            entries[i] = (
                SimulationResult.from_dict(payload["result"]),
                float(payload["wall_seconds"]),
                False,
            )
            done_count += 1
            remaining_estimate -= estimates[i]

        def charge(i: int, kind: str, error: str, wall: float) -> None:
            """One failed attempt of config *i*: retry or quarantine."""
            nonlocal done_count, remaining_estimate
            attempts[i] += 1
            fail_wall[i] += wall
            if attempts[i] >= policy.max_attempts:
                entries[i] = self._failure(
                    configs[i], keys[i], kind, error, attempts[i], fail_wall[i]
                )
                done_count += 1
                remaining_estimate -= estimates[i]
            else:
                self.stats.retries += 1
                ready = time.monotonic() + policy.backoff_seconds(
                    keys[i], attempts[i]
                )
                heapq.heappush(retry_heap, (ready, i))

        def process_payloads(flight: _Flight, items: List[Dict[str, object]]) -> None:
            for i, payload in zip(flight.indices, items):
                if "error" in payload:
                    charge(
                        i, "exception", str(payload["error"]),
                        float(payload.get("wall_seconds", 0.0)),
                    )
                else:
                    finish_ok(i, payload)
            tick()

        def group_failure(indices: List[int], kind: str, error: str,
                          wall: float) -> None:
            """A future died wholesale: bisect to pin blame, or charge.

            A single-config future identifies its culprit exactly; a
            batch is split into halves probed one at a time, so the
            next crash narrows the suspect set by half (log2 probes to
            isolate one poison config from a batch).
            """
            alive = [i for i in indices if entries[i] is None]
            if not alive:
                return
            if len(alive) == 1:
                charge(alive[0], kind, error, wall)
                tick()
                return
            mid = len(alive) // 2
            probe_queue.appendleft(alive[mid:])
            probe_queue.appendleft(alive[:mid])

        def kill_pool() -> None:
            nonlocal rebuilds
            rebuilds += 1
            pool, self._pool = self._pool, None
            if pool is None:
                return
            # Hung or wedged workers never drain the task queue, so a
            # plain shutdown would wait forever: terminate first.
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except Exception:  # noqa: BLE001 — already-dead is fine
                    pass
            # The executor's manager thread notices the dead workers and
            # joins them; wait for it (bounded) so no worker outlives
            # the sweep that killed it.  Joining them here instead
            # would race that thread's own join.  (Read it first:
            # shutdown drops the executor's reference.)
            manager = getattr(pool, "_executor_manager_thread", None)
            pool.shutdown(wait=False, cancel_futures=True)
            if manager is not None:
                manager.join(timeout=5.0)

        def harvest_pending() -> List[_Flight]:
            """Collect finished futures' results; return unfinished flights."""
            unfinished = []
            for future, flight in list(pending.items()):
                if (
                    future.done() and not future.cancelled()
                    and future.exception() is None
                ):
                    process_payloads(flight, future.result())
                else:
                    unfinished.append(flight)
            pending.clear()
            return unfinished

        def exhaust_budget() -> None:
            """Too many rebuilds: quarantine everything unresolved."""
            nonlocal done_count
            probe_queue.clear()
            backlog.clear()
            retry_heap.clear()
            for i in range(n):
                if entries[i] is None:
                    entries[i] = self._failure(
                        configs[i], keys[i], "worker-crash",
                        f"pool rebuild budget exhausted after {rebuilds} "
                        f"rebuilds — workers are dying faster than runs "
                        f"complete",
                        attempts[i] + 1, fail_wall[i],
                    )
                    done_count += 1
            tick()

        def submit(indices: List[int], probe: bool = False) -> bool:
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers
                )
            try:
                future = self._pool.submit(
                    execute_config_batch,
                    [payloads[i] for i in indices],
                    fault_spec,
                    [attempts[i] for i in indices],
                    self.state_dir,
                )
            except BrokenProcessPool:
                # Pool died between our last observation and this
                # submit: recycle it and let the caller re-queue.
                kill_pool()
                return False
            now = time.monotonic()
            budget = policy.deadline_seconds(len(indices))
            pending[future] = _Flight(
                indices=list(indices), submitted=now,
                deadline=(now + budget) if budget is not None else None,
                probe=probe,
            )
            return True

        # One future per config, in input order; the loop below keeps
        # at most ``workers`` of them in flight.
        backlog.extend([i] for i in range(n))

        # -- orchestration loop ------------------------------------------
        while True:
            if rebuilds > rebuild_budget:
                exhaust_budget()
                break
            now = time.monotonic()
            probing = bool(probe_queue) or any(
                flight.probe for flight in pending.values()
            )
            if probing:
                # Crash forensics: exactly one future in flight, so the
                # next pool break attributes blame to that probe alone.
                if not pending and probe_queue:
                    group = probe_queue.popleft()
                    if not submit(group, probe=True):
                        probe_queue.appendleft(group)
            else:
                # A future submitted beyond the worker count would
                # queue inside the executor with its deadline already
                # running; it waits in the backlog instead.
                while backlog and len(pending) < self.workers:
                    group = backlog.popleft()
                    if not submit(group):
                        backlog.appendleft(group)
                        break
                while (
                    retry_heap and retry_heap[0][0] <= now
                    and len(pending) < self.workers
                ):
                    _, i = heapq.heappop(retry_heap)
                    if entries[i] is not None:
                        continue
                    if not submit([i]):
                        heapq.heappush(retry_heap, (now, i))
                        break

            if not pending:
                if probe_queue or backlog:
                    continue  # submit() recycled the pool; try again
                if retry_heap:
                    time.sleep(
                        min(0.2, max(0.0, retry_heap[0][0] - time.monotonic()))
                    )
                    continue
                break  # everything resolved

            # How long may we block?  Until the nearest deadline or the
            # nearest retry becoming ready (if a slot is free for it),
            # whichever comes first.
            wait_timeout: Optional[float] = None
            horizons = [
                flight.deadline for flight in pending.values()
                if flight.deadline is not None
            ]
            if retry_heap and not probing and len(pending) < self.workers:
                horizons.append(retry_heap[0][0])
            if horizons:
                wait_timeout = max(0.0, min(horizons) - time.monotonic())
            done, _ = concurrent.futures.wait(
                list(pending), timeout=wait_timeout,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )

            pool_broke = False
            for future in done:
                flight = pending.pop(future)
                try:
                    items = future.result()
                except (BrokenProcessPool, concurrent.futures.BrokenExecutor):
                    pool_broke = True
                    pending[future] = flight  # reclassified by harvest below
                except Exception as error:  # noqa: BLE001 — infra failure
                    # The future failed without killing the pool
                    # (pickling error, spec rejected by the worker...).
                    group_failure(
                        flight.indices, "worker-crash",
                        f"{type(error).__name__}: {error}",
                        time.monotonic() - flight.submitted,
                    )
                else:
                    process_payloads(flight, items)

            if pool_broke:
                # A worker died; every unfinished future is suspect
                # (the executor fails them all).  Harvest what did
                # finish, rebuild the pool, and bisect the union.
                suspects = harvest_pending()
                kill_pool()
                if rebuilds > rebuild_budget:
                    exhaust_budget()
                    break
                union = [i for flight in suspects for i in flight.indices]
                group_failure(
                    union, "worker-crash",
                    "worker process died (BrokenProcessPool)",
                    0.0,
                )
                continue

            now = time.monotonic()
            expired = [
                flight for flight in pending.values()
                if flight.deadline is not None and now >= flight.deadline
            ]
            if expired:
                # A worker is hung past its wall-clock budget.  The
                # expired future names its suspects precisely; other
                # in-flight work is innocent but shares the pool we
                # must kill, so it is resubmitted uncharged.
                unfinished = harvest_pending()
                kill_pool()
                if rebuilds > rebuild_budget:
                    exhaust_budget()
                    break
                expired_ids = {id(flight) for flight in expired}
                for flight in unfinished:
                    alive = [i for i in flight.indices if entries[i] is None]
                    if not alive:
                        continue
                    if id(flight) in expired_ids:
                        group_failure(
                            alive, "timeout",
                            f"run exceeded the {policy.timeout}s wall-clock "
                            f"timeout",
                            now - flight.submitted,
                        )
                    else:
                        backlog.append(alive)

        return entries  # type: ignore[return-value]

    def _execute_with_claims(
        self, configs: List[RunConfig]
    ) -> List["SweepRunner._Entry"]:
        """Claim-aware execution: run what we claim, poll what peers hold."""
        assert self.cache is not None
        n = len(configs)
        keys = [c.config_hash() for c in configs]
        results: List[Optional[SweepRunner._Entry]] = [None] * n

        owned: List[int] = []
        deferred: List[int] = []
        nonces: Dict[str, str] = {}
        for i, key in enumerate(keys):
            nonce = self.cache.try_claim(key)
            if not nonce:
                # Dead peer: a stale claim is atomically replaced.
                nonce = self.cache.take_over_claim(key, self.claim_ttl)
            if nonce:
                owned.append(i)
                nonces[key] = nonce
            else:
                deferred.append(i)

        if owned:
            released: set = set()
            try:
                computed = self._execute_batch([configs[i] for i in owned])
                for i, entry in zip(owned, computed):
                    key = keys[i]
                    if isinstance(entry, RunFailure):
                        # No record will ever appear for this key: drop
                        # the claim now so polling peers stop waiting
                        # and take the work over (their own policy may
                        # still succeed where ours quarantined).
                        self.cache.release_claim(key, nonces[key])
                        released.add(key)
                        results[i] = entry
                        continue
                    result, wall, _ = entry
                    # Persist each record *before* releasing its claim:
                    # a peer polling this key must never see the claim
                    # vanish while the record is still missing, or it
                    # would conclude we died and re-run the config.
                    persisted = True
                    try:
                        self.cache.put(configs[i], result, wall_seconds=wall)
                    except OSError as error:
                        persisted = False
                        self._cache_degraded(error)
                    self.cache.release_claim(key, nonces[key])
                    released.add(key)
                    results[i] = (result, wall, persisted)
            finally:
                # On an execution error the unfinished claims are
                # dropped (no record): peers take the work over.  Only
                # claims still held are released — an unconditional
                # re-release here could delete a *new* peer's claim
                # for a key we already released above (the nonce check
                # guards the same race at the file level).
                for i in owned:
                    if keys[i] not in released:
                        self.cache.release_claim(keys[i], nonces[keys[i]])

        # Poll for the configs a peer is computing; take over when the
        # claim goes stale or the wait budget runs out.  Correctness
        # first: everything left at the deadline is run locally.
        if deferred:
            deadline = time.monotonic() + self.claim_wait
            pending = list(deferred)
            while pending and time.monotonic() < deadline:
                still_pending = []
                for i in pending:
                    result = self.cache.peek(configs[i])
                    if result is not None:
                        results[i] = (result, None, False)
                        continue
                    still_pending.append(i)
                    if self.cache.claim_age(keys[i]) is None:
                        # Claim vanished without a record: the peer
                        # died — stop waiting, run the rest locally.
                        deadline = time.monotonic()
                pending = still_pending
                if pending and time.monotonic() < deadline:
                    time.sleep(self.claim_poll)
            if pending:
                computed = self._execute_batch([configs[i] for i in pending])
                for i, entry in zip(pending, computed):
                    results[i] = entry
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Shut the worker pool down (no-op when none was started)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Always release the pool, success or error: a leaked
        # ProcessPoolExecutor keeps worker processes alive until
        # interpreter exit.
        self.close()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> Optional[CacheStats]:
        """Disk-cache accounting (None when no cache is configured)."""
        return self.cache.stats if self.cache is not None else None

    def cached_runs(self) -> int:
        """Distinct results currently held in the in-process memo."""
        return len(self._memory)

    def __repr__(self) -> str:
        return (
            f"SweepRunner(workers={self.workers}, "
            f"cache={getattr(self.cache, 'root', None)!r}, "
            f"stats={self.stats.as_dict()})"
        )
