"""The benchmark's three workloads and their correctness gates.

Everything runs in this one process: ``workers=1`` inline sweep
runners, an in-process :class:`~repro.serve.app.ServerThread`, and two
client threads.  Each workload returns an :class:`Outcome` holding its
end-to-end metrics (untraced runs), its per-layer metrics (traced run)
and the tally of attempted and failed operations.  See ``README.md``
for why each workload exists and which layer each metric belongs to.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import re
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy

from repro.client import ReproClient
from repro.runner import report as report_mod
from repro.runner.config import SweepGrid
from repro.runner.sweep import SweepRunner, SweepStats
from repro.runner.worker import RunContext, process_context
from repro.serve.app import ReproServer, ServerThread
from repro.sim.fidelity import EXACT, parse_fidelity
from repro.workloads.suite import ALL_BENCHMARKS

from calib import Calibrator
from tracer import Tracer, combine, scaled, set_tracing

ROOT = Path(__file__).resolve().parent.parent
FIG12 = ROOT / "benchmarks" / "results" / "fig12_speedup.txt"
# The golden-regression tolerance (tests/analysis/test_golden_regression.py).
FIG12_RTOL = 0.02
FIG12_ATOL = 0.006

VALLEY = ("MT", "LU", "SC", "SRAD2")
EXACT_SCHEMES = ("BASE", "PAE")
AUTO_SCHEMES = ("BASE", "PM", "RMP", "PAE")
AUTO_ERR_SCHEMES = ("PM", "RMP", "PAE")
WARM_SCHEMES = ("BASE", "PM", "PAE", "FAE")
COLD_BENCHMARKS = ("SP", "HS")
COLD_SCHEMES = ("PAE",)
TENANTS = ("alice", "bob")
POLL_SECONDS = 0.005
# Warm re-sweeps per timed sample.
WARM_BATCH = 10

Span = Tuple[float, float]  # (start, end) perf_counter values


@dataclass(frozen=True)
class Size:
    """How much work one run does.  ``FULL`` is the benchmark;
    ``TINY`` exists for the benchmark's own smoke test."""

    scale: float
    benchmarks: Tuple[str, ...]
    min_reps: int
    setup_reps: int
    warm_batches: int  # per cold sweep
    serve_scale: float
    serve_warm_benchmarks: Tuple[str, ...]
    min_rounds: int


FULL = Size(
    scale=1.0, benchmarks=VALLEY, min_reps=2, setup_reps=5, warm_batches=20,
    serve_scale=0.25, serve_warm_benchmarks=tuple(ALL_BENCHMARKS),
    min_rounds=50,
)
TINY = Size(
    scale=0.1, benchmarks=("MT", "SC"), min_reps=1, setup_reps=2, warm_batches=2,
    serve_scale=0.1, serve_warm_benchmarks=("MT", "SP", "HS"),
    min_rounds=3,
)


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    # The same end-to-end metrics from raw host time, for reference.
    uncalibrated: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    # Named gate results, printed for the smoke test and for humans.
    checks: Dict[str, bool] = field(default_factory=dict)

    def tally(self, attempted: int, failed: int, check: str) -> None:
        self.attempted += attempted
        self.failed += failed
        self.checks[check] = self.checks.get(check, True) and failed == 0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (*q* in 0..100)."""
    return float(numpy.percentile(values, q))


def raw_seconds(span: Span) -> float:
    return span[1] - span[0]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hmean(values: Sequence[float]) -> float:
    return len(values) / sum(1.0 / v for v in values)


class ScratchDirs:
    """Temporary cache roots under ``<checkout>/.perfbench-tmp``: the
    benchmark never writes outside its checkout, and never into a
    default ``.repro-cache``."""

    def __init__(self) -> None:
        self.base = ROOT / ".perfbench-tmp"
        self._dirs: List[str] = []

    def make(self) -> str:
        self.base.mkdir(exist_ok=True)
        path = tempfile.mkdtemp(prefix="run-", dir=self.base)
        self._dirs.append(path)
        return path

    def remove(self, path: str) -> None:
        shutil.rmtree(path, ignore_errors=True)
        self._dirs.remove(path)

    def close(self) -> None:
        for path in list(self._dirs):
            self.remove(path)
        try:
            self.base.rmdir()
        except OSError:
            pass  # not empty: another run of the benchmark is using it


def parse_fig12() -> Dict[str, Dict[str, float]]:
    """``{benchmark: {scheme: speedup}}`` from the checked-in table."""
    table: Dict[str, Dict[str, float]] = {}
    header: Optional[List[str]] = None
    for line in FIG12.read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "speedup":
            header = parts[1:]
        elif (
            header and re.fullmatch(r"[A-Z0-9]+", parts[0])
            and len(parts) == len(header) + 1
        ):
            table[parts[0]] = dict(zip(header, map(float, parts[1:])))
    return table


def results_summary(runs: Sequence[dict]) -> Dict[str, float]:
    """Simulated counts summed over report ``runs`` entries."""
    requests = sum(r["requests"] for r in runs)
    llc = sum(r["llc_accesses"] for r in runs)
    dram = sum(r["dram_reads"] + r["dram_writes"] for r in runs)
    sampled = [r["metadata"].get("sampled", {}) for r in runs]
    return {
        "requests": requests,
        "events": sum(r["metadata"]["events"] for r in runs),
        "l1_miss_rate": (
            sum(r["l1_miss_rate"] * r["requests"] for r in runs) / requests
            if requests else 0.0
        ),
        "llc_miss_rate": (
            sum(r["llc_miss_rate"] * r["llc_accesses"] for r in runs) / llc
            if llc else 0.0
        ),
        "row_hit_rate": (
            sum(r["row_hit_rate"] * (r["dram_reads"] + r["dram_writes"])
                for r in runs) / dram
            if dram else 0.0
        ),
        "activates": sum(r["dram_activates"] for r in runs),
        "estimated_kernels": sum(s.get("estimated_kernels", 0) for s in sampled),
        "ff_requests": sum(s.get("ff_requests", 0) for s in sampled),
    }


def layer_metrics(
    spans, sims: Dict[str, float], runner: SweepStats, ops: int,
    events_per_s: float,
) -> Dict[str, float]:
    """The per-layer metrics every workload reports.

    *spans* are the traced spans, *sims* the simulated counts of
    :func:`results_summary`, *runner* the runner accounting, *ops* the
    memory ops of the simulated workloads and *events_per_s* the engine
    events per calibrated second of untraced sweep.  Metrics a workload
    does not exercise read 0; the workload overrides its own extras.
    """
    def self_s(*names: str) -> float:
        return sum(spans[n].self_time for n in names)

    def calls(name: str) -> int:
        return spans[name].calls

    state_gets = spans["runner.state_get"].calls
    return {
        "workloads.build_s": self_s("workloads.build"),
        "workloads.ops": ops,
        "core.scheme_build_s": self_s("core.scheme_build"),
        "core.entropy_s": self_s("core.entropy"),
        "core.map_s": self_s("core.map", "core.map_trace", "core.decode_fields"),
        "engine.self_s": self_s("engine.run"),
        "engine.events": sims["events"],
        "engine.events_per_op": (
            sims["events"] / sims["requests"] if sims["requests"] else 0.0
        ),
        "engine.events_per_s": events_per_s,
        "gpu.sm_s": self_s("sm.assign_tb", "sm.on_fill"),
        "gpu.noc_s": self_s("noc.send"),
        "gpu.llc_s": self_s("llc.on_read", "llc.on_write", "llc.on_dram_fill"),
        "gpu.noc_packets": calls("noc.send"),
        "gpu.l1_miss_rate": sims["l1_miss_rate"],
        "gpu.llc_miss_rate": sims["llc_miss_rate"],
        "dram.submit_s": self_s("dram.submit_many"),
        "dram.select_s": self_s("dram.select"),
        "dram.row_hit_rate": sims["row_hit_rate"],
        "dram.activates": sims["activates"],
        "fidelity.plan_s": self_s("fidelity.plan_auto"),
        "fidelity.estimated_kernels": sims["estimated_kernels"],
        "fidelity.ff_requests": sims["ff_requests"],
        "replay.replay_s": self_s("replay.replay_ops"),
        "replay.stream_s": self_s("replay.build_stream"),
        "replay.calls": calls("replay.replay_ops"),
        "runner.cache_get_s": self_s("runner.cache_get"),
        "runner.cache_put_s": self_s("runner.cache_put"),
        "runner.state_get_s": self_s("runner.state_get"),
        "runner.state_put_s": self_s("runner.state_put"),
        "runner.state_hit_frac": (
            (state_gets - spans["runner.state_get"].none_results) / state_gets
            if state_gets else 0.0
        ),
        "runner.report_s": self_s(
            "runner.report_from_results", "runner.render_report"
        ),
        "runner.memory_hits": runner.memory_hits,
        "runner.cache_hits": runner.cache_hits,
        "runner.executed": runner.executed,
        "serve.queue_ms": 0.0,
        "serve.coalesced_frac": 0.0,
        "serve.status_ms": 0.0,
        "auto_err_pct": 0.0,
        "trace.overhead_s": 0.0,
    }


def add_stats(total: SweepStats, stats: SweepStats) -> None:
    total.memory_hits += stats.memory_hits
    total.cache_hits += stats.cache_hits
    total.executed += stats.executed


@dataclass
class SweepRun:
    """One sweep: its report, runner accounting and raw time spans."""

    span: Span
    text: str
    report: dict
    quarantined: int
    stats: SweepStats
    # One span per executed config, in execution order.
    config_spans: List[Span]


def timed_sweep(grid: SweepGrid, context: RunContext, cache_dir: str) -> SweepRun:
    """One sweep of *grid* on a fresh inline runner over *cache_dir*.

    The runner and report path are the ones ``repro sweep`` uses
    (``sweep_report(strict=False)``); report functions are looked up on
    their module so a traced run sees the wrapped ones.
    """
    config_spans: List[Span] = []
    last = [0.0]

    def on_progress(_progress) -> None:
        now = time.perf_counter()
        config_spans.append((last[0], now))
        last[0] = now

    started = last[0] = time.perf_counter()
    runner = SweepRunner(
        workers=1, cache_dir=cache_dir, context=context, progress=on_progress
    )
    try:
        configs = grid.configs()
        outcome = runner.run_outcomes(configs)
        report = report_mod.report_from_results(
            grid, configs, outcome.results, failures=outcome.failures
        )
        text = report_mod.render_report(report)
    finally:
        runner.close()
    return SweepRun(
        (started, time.perf_counter()), text, report,
        len(outcome.failures), runner.stats, config_spans,
    )


def fill_context(context: RunContext, grid: SweepGrid) -> None:
    """Set-up: build every trace, scheme and auto plan *grid* needs."""
    for config in grid.configs():
        context.workload(config.benchmark, config.scale)
        context.scheme(
            config.scheme, config.seed, config.memory,
            config.profile_scale, config.window,
        )
        if config.fidelity != EXACT:
            context.auto_plan(
                config.benchmark, config.scale, config.fidelity, config.memory
            )


def workload_ops(context: RunContext, benchmarks, scale: float) -> int:
    return sum(context.workload(b, scale).n_requests for b in benchmarks)


# ----------------------------------------------------------------------
# exact-valley and auto-screen
# ----------------------------------------------------------------------
def run_sweep_workload(
    name: str, seed: int, seconds: float, trace: bool, size: Size,
    import_span: Span, calib: Calibrator, tracer: Optional[Tracer],
) -> Outcome:
    """Cold sweeps of the workload's grid, each on a fresh result (and
    state) cache, each followed by warm re-sweeps from that cache.

    With *trace*, untraced and traced sweeps alternate and only
    per-layer metrics are produced.  Otherwise the calibration timer
    probes throughout (it would land inside spans of a traced run)."""
    auto = name == "auto-screen"
    grid = SweepGrid(
        benchmarks=size.benchmarks,
        schemes=AUTO_SCHEMES if auto else EXACT_SCHEMES,
        seeds=(seed,), scale=size.scale,
        fidelity=parse_fidelity("auto") if auto else EXACT,
    )
    n_configs = len(grid.configs())
    expected = parse_fig12() if (not auto and seed == 0 and size is FULL) else None
    out = Outcome()
    scratch = ScratchDirs()
    colds: Dict[bool, List[SweepRun]] = {False: [], True: []}
    warm_spans: List[Span] = []
    setup_spans: List[Span] = []
    traced_spans = None
    traced_stats = SweepStats()
    traced_runs: List[dict] = []

    def cold_seconds() -> float:
        return sum(
            calib.calibrated(*run.span) for runs in colds.values() for run in runs
        )

    def one_rep(context: RunContext, traced: bool) -> None:
        nonlocal traced_spans
        set_tracing(tracer, traced)
        cache_dir = scratch.make()
        try:
            before = tracer.snapshot() if traced else None
            calib.probe()
            cold = timed_sweep(grid, context, cache_dir)
            calib.probe()
            colds[traced].append(cold)
            mismatch = cold.text != colds[False][0].text
            bad = n_configs if mismatch else cold.quarantined
            if expected is not None and not mismatch:
                bad += fig12_mismatches(cold.report, expected)
            out.tally(n_configs, min(bad, n_configs), "sweep_reports")
            # Warm re-sweeps: fresh runners answering from the disk
            # cache the cold sweep just wrote, timed in back-to-back
            # batches (one re-sweep takes milliseconds, so single ones
            # would time the host's hiccups more than the program).
            for _ in range(size.warm_batches if traced or not trace else 0):
                started = time.perf_counter()
                for _ in range(WARM_BATCH):
                    warm = timed_sweep(grid, context, cache_dir)
                    out.tally(1, int(warm.text != cold.text), "warm_reports")
                    if traced:
                        add_stats(traced_stats, warm.stats)
                warm_spans.append((started, time.perf_counter()))
                calib.probe()
            if traced:
                add_stats(traced_stats, cold.stats)
                traced_runs.extend(run["result"] for run in cold.report["runs"])
                delta = combine(tracer.snapshot(), before, sign=-1)
                traced_spans = (
                    delta if traced_spans is None
                    else combine(traced_spans, delta)
                )
        finally:
            scratch.remove(cache_dir)

    try:
        set_tracing(tracer, trace)
        before_setup = tracer.snapshot() if trace else None
        calib.probe()
        with contextlib.nullcontext() if trace else calib.sampling():
            # Set-up: a fresh RunContext filled per repetition; the timed
            # sweeps reuse the last one, as repeated sweeps in one
            # process do.
            for _ in range(1 if trace else size.setup_reps):
                started = time.perf_counter()
                context = RunContext()
                fill_context(context, grid)
                setup_spans.append((started, time.perf_counter()))
            setup_layers = (
                combine(tracer.snapshot(), before_setup, sign=-1) if trace else None
            )
            # At least *seconds* of calibrated sweep time, in at least
            # ``min_reps`` sweeps (traced: at least one untraced-traced
            # pair).
            while True:
                if trace:
                    one_rep(context, False)
                one_rep(context, trace)
                if (
                    len(colds[trace]) >= (1 if trace else size.min_reps)
                    and cold_seconds() >= seconds
                ):
                    break
        set_tracing(tracer, False)
        calib.probe()

        walls = {
            traced: [calib.calibrated(*run.span) for run in runs]
            for traced, runs in colds.items()
        }
        if trace:
            n_traced = len(walls[True])
            sims = results_summary(traced_runs)
            for key in ("events", "requests", "activates",
                        "estimated_kernels", "ff_requests"):
                sims[key] = round(sims[key] / n_traced)
            for key in ("memory_hits", "cache_hits", "executed"):
                setattr(traced_stats, key, round(getattr(traced_stats, key) / n_traced))
            # Per-layer figures cover one set-up plus one traced sweep
            # (with its warm re-sweeps).
            layers = layer_metrics(
                combine(setup_layers, scaled(traced_spans, n_traced)),
                sims, traced_stats,
                workload_ops(context, grid.benchmarks, size.scale),
                sims["events"] / median(walls[False]),
            )
            layers["trace.overhead_s"] = median(walls[True]) - median(walls[False])
            if auto:
                layers["auto_err_pct"] = auto_error_pct(
                    colds[True][-1].report, grid, context, seed, size, scratch
                )
            out.per_layer = layers
        else:
            def end_to_end(seconds: Callable[[Span], float]) -> Dict[str, float]:
                cold = [seconds(run.span) for run in colds[False]]
                # One latency per config (its median over the sweeps):
                # the grid's configs differ several-fold in cost, so
                # pooled single samples would put p50 on an edge sample.
                per_config = [
                    median([seconds(span) for span in spans])
                    for spans in zip(*(run.config_spans for run in colds[False]))
                ]
                warm = [seconds(span) / WARM_BATCH for span in warm_spans]
                return {
                    "setup_s": seconds(import_span) + median(
                        [seconds(span) for span in setup_spans]
                    ),
                    "sweep_s": median(cold),
                    "peak_rss_mb": peak_rss_mb(),
                    "warm_p50_ms": 1000 * percentile(warm, 50),
                    "warm_p90_ms": 1000 * percentile(warm, 90),
                    "cold_p50_ms": 1000 * percentile(per_config, 50),
                    "cold_p90_ms": 1000 * percentile(per_config, 90),
                    "jobs_per_s": n_configs * len(cold) / sum(cold),
                }

            out.end_to_end = end_to_end(lambda span: calib.calibrated(*span))
            out.uncalibrated = end_to_end(raw_seconds)
    finally:
        set_tracing(tracer, False)
        scratch.close()
    return out


def fig12_mismatches(report: dict, expected: Dict[str, Dict[str, float]]) -> int:
    """Cells of *report* outside the golden tolerance of fig12."""
    bad = 0
    for scheme, per_bench in report["derived"]["speedup"].items():
        for bench, value in per_bench.items():
            want = expected[bench][scheme]
            if abs(value - want) > FIG12_ATOL + FIG12_RTOL * abs(want):
                bad += 1
    return bad


def auto_error_pct(
    report: dict, grid: SweepGrid, context: RunContext, seed: int,
    size: Size, scratch: ScratchDirs,
) -> float:
    """Largest |HMEAN speedup error| (%) of auto against exact mode over
    PM, RMP and PAE.  Exact values come from fig12 at seed 0 (full
    size), else from an exact sweep of the same cells run here,
    outside every timed phase."""
    auto_hmean = report["derived"]["hmean_speedup"]
    if seed == 0 and size is FULL:
        table = parse_fig12()
        exact = {
            s: hmean([table[b][s] for b in grid.benchmarks])
            for s in AUTO_ERR_SCHEMES
        }
    else:
        exact_grid = SweepGrid(
            benchmarks=grid.benchmarks, schemes=AUTO_SCHEMES,
            seeds=(seed,), scale=size.scale, fidelity=EXACT,
        )
        cache_dir = scratch.make()
        try:
            exact_run = timed_sweep(exact_grid, context, cache_dir)
        finally:
            scratch.remove(cache_dir)
        exact = exact_run.report["derived"]["hmean_speedup"]
    return max(
        100.0 * abs(auto_hmean[s] / exact[s] - 1.0) for s in AUTO_ERR_SCHEMES
    )


# ----------------------------------------------------------------------
# serve-resweep
# ----------------------------------------------------------------------
def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class JobRecord:
    kind: str
    round: int
    span: Span
    status: dict
    report_digest: str


def run_job(
    client: ReproClient, grid: SweepGrid, kind: str, round_: int
) -> JobRecord:
    """Submit, poll status at a fixed interval, fetch the report."""
    started = time.perf_counter()
    job = client.submit(grid)
    status = client.status(job["id"])
    while status["state"] not in ("done", "partial", "failed"):
        time.sleep(POLL_SECONDS)
        status = client.status(job["id"])
    text = client.report_text(job["id"]) if status["state"] != "failed" else ""
    span = (started, time.perf_counter())
    return JobRecord(kind, round_, span, status, digest(text))


class ClosedLoop:
    """Two tenants in lock-step rounds behind a barrier; in each round
    each client runs one warm job, then one cold job with the round's
    seed.

    With *calib*, a probe runs whenever the barrier trips -- both
    clients are waiting and the server is idle -- and rounds go on
    until *rounds_min* are done and *seconds* of calibrated time have
    passed.  Without it, exactly *rounds_min* rounds run."""

    def __init__(self, url: str, warm: SweepGrid, cold_grid, rounds_min: int,
                 seconds: float, calib: Optional[Calibrator]) -> None:
        self.clients = [ReproClient(url, tenant=t) for t in TENANTS]
        self.warm = warm
        self.cold_grid = cold_grid
        self.rounds_min = rounds_min
        self.seconds = seconds
        self.calib = calib
        self.round = -1
        self.go = True
        self.records: List[JobRecord] = []
        self.errors: List[str] = []
        self.span: Span = (0.0, 0.0)
        self._barrier = threading.Barrier(len(TENANTS), action=self._next_round)

    def _next_round(self) -> None:
        self.round += 1
        if self.calib is None:
            self.go = self.round < self.rounds_min
            return
        self.calib.probe()
        elapsed = self.calib.calibrated(self.span[0], time.perf_counter())
        self.go = self.round < self.rounds_min or elapsed < self.seconds

    def _client(self, index: int) -> None:
        client = self.clients[index]
        try:
            while True:
                self._barrier.wait(timeout=120)
                if not self.go:
                    return
                r = self.round
                warm = run_job(client, self.warm, "warm", r)
                cold = run_job(client, self.cold_grid(r), "cold", r)
                self.records.extend((warm, cold))
        except threading.BrokenBarrierError:
            pass  # the other client failed and recorded why
        except Exception as error:  # noqa: BLE001 — counted as a failure
            self.errors.append(f"{TENANTS[index]}: {type(error).__name__}: {error}")
            self._barrier.abort()

    def run(self) -> None:
        """Run both clients to completion."""
        threads = [
            threading.Thread(target=self._client, args=(i,), name=f"client-{t}")
            for i, t in enumerate(TENANTS)
        ]
        started = time.perf_counter()
        self.span = (started, started)
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                if thread.ident is not None:
                    thread.join(timeout=300)
        self.span = (started, time.perf_counter())


def run_serve_workload(
    seed: int, seconds: float, trace: bool, size: Size,
    import_span: Span, calib: Calibrator, tracer: Optional[Tracer],
) -> Outcome:
    """A closed loop of two tenants against an in-process server.

    With *trace*, the server, its set-up and a fixed number of rounds
    are traced, no probes run during the loop, and only per-layer
    metrics are produced."""
    warm_grid = SweepGrid(
        benchmarks=size.serve_warm_benchmarks, schemes=WARM_SCHEMES,
        seeds=(seed,), scale=size.serve_scale,
    )

    def cold_grid(round_: int) -> SweepGrid:
        return SweepGrid(
            benchmarks=COLD_BENCHMARKS, schemes=COLD_SCHEMES,
            seeds=(1000 * (seed + 1) + round_,), scale=size.serve_scale,
        )

    out = Outcome()
    scratch = ScratchDirs()
    try:
        root = scratch.make()
        # Wrappers go in before the server builds any GPUSystem.
        set_tracing(tracer, trace)
        server = ReproServer(
            port=0, workers=1, runners=1, max_jobs=2, cache_dir=root
        )
        thread = ServerThread(server)
        try:
            # Set-up: boot, then prewarm the warm grid through the
            # service, one job per benchmark with a probe between jobs.
            calib.probe()
            started = time.perf_counter()
            url = thread.start()
            prewarm = []
            for bench in warm_grid.benchmarks:
                prewarm.append(run_job(
                    ReproClient(url, tenant=TENANTS[0]),
                    dataclasses.replace(warm_grid, benchmarks=(bench,)),
                    "prewarm", -1,
                ))
                calib.probe()
            setup_span = (started, prewarm[-1].span[1])
            loop = ClosedLoop(
                url, warm_grid, cold_grid, size.min_rounds, seconds,
                None if trace else calib,
            )
            loop.run()
            spans = tracer.snapshot() if trace else None
            pool_stats = server.pool.stats()
        finally:
            thread.stop()
        set_tracing(tracer, False)
        for error in loop.errors:
            print(f"serve-resweep client error: {error}", flush=True)
        out.tally(len(loop.errors), len(loop.errors), "clients")

        # References, all made after the server stopped.  Warm and
        # prewarm reports must equal a direct sweep of the same grid
        # answered from the prewarming tenant's cache namespace.  Each
        # round's cold report must equal a direct sweep on a fresh
        # runner and RunContext, sharing neither the service's memo nor
        # its schemes; those sweeps' walls are this workload's sweep_s.
        namespace = str(Path(root) / TENANTS[0])
        warm_ref = timed_sweep(warm_grid, RunContext(), namespace)
        for bench, job in zip(warm_grid.benchmarks, prewarm):
            ref = timed_sweep(
                dataclasses.replace(warm_grid, benchmarks=(bench,)),
                RunContext(), namespace,
            )
            ok = job.status["state"] == "done" and job.report_digest == digest(ref.text)
            out.tally(1, int(not ok), "serve_reports")
        ref_context = RunContext()
        ref_spans: Dict[bool, List[Span]] = {False: [], True: []}
        cold_refs: Dict[int, str] = {}
        cold_runs: List[dict] = []
        untraced_events = 0
        for r in sorted({rec.round for rec in loop.records}):
            traced = trace and r % 2 == 1
            set_tracing(tracer, traced)
            cache_dir = scratch.make()
            try:
                calib.probe()
                ref = timed_sweep(cold_grid(r), ref_context, cache_dir)
            finally:
                scratch.remove(cache_dir)
            ref_spans[traced].append(ref.span)
            cold_refs[r] = digest(ref.text)
            ref_runs = [run["result"] for run in ref.report["runs"]]
            cold_runs.extend(ref_runs)
            if not traced:
                untraced_events += results_summary(ref_runs)["events"]
        set_tracing(tracer, False)
        calib.probe()

        for rec in loop.records:
            want = digest(warm_ref.text) if rec.kind == "warm" else cold_refs[rec.round]
            ok = rec.status["state"] == "done" and rec.report_digest == want
            out.tally(1, int(not ok), "serve_reports")

        ref_walls = {
            traced: [calib.calibrated(*span) for span in spans_]
            for traced, spans_ in ref_spans.items()
        }
        if trace:
            warm_runs = [run["result"] for run in warm_ref.report["runs"]]
            layers = layer_metrics(
                spans, results_summary(warm_runs + cold_runs), pool_stats,
                workload_ops(process_context(), warm_grid.benchmarks, size.serve_scale),
                untraced_events / sum(ref_walls[False]),
            )
            statuses = [rec.status for rec in prewarm + loop.records]
            cold_status = [rec.status for rec in loop.records if rec.kind == "cold"]
            status_span = spans["client.status"]
            layers["serve.queue_ms"] = 1000 * statistics.fmean(
                s["started"] - s["created"] for s in statuses
            )
            layers["serve.coalesced_frac"] = (
                sum(s["progress"]["coalesced"] for s in cold_status)
                / sum(s["progress"]["total"] for s in cold_status)
            )
            layers["serve.status_ms"] = 1000 * status_span.total / status_span.calls
            layers["trace.overhead_s"] = (
                median(ref_walls[True]) - median(ref_walls[False])
            )
            out.per_layer = layers
        else:
            def end_to_end(seconds: Callable[[Span], float]) -> Dict[str, float]:
                warm, cold = (
                    [seconds(rec.span) for rec in loop.records if rec.kind == kind]
                    for kind in ("warm", "cold")
                )
                return {
                    "setup_s": seconds(import_span) + seconds(setup_span),
                    "sweep_s": median([seconds(span) for span in ref_spans[False]]),
                    "peak_rss_mb": peak_rss_mb(),
                    "warm_p50_ms": 1000 * percentile(warm, 50),
                    "warm_p90_ms": 1000 * percentile(warm, 90),
                    "cold_p50_ms": 1000 * percentile(cold, 50),
                    "cold_p90_ms": 1000 * percentile(cold, 90),
                    "jobs_per_s": len(loop.records) / seconds(loop.span),
                }

            out.end_to_end = end_to_end(lambda span: calib.calibrated(*span))
            out.uncalibrated = end_to_end(raw_seconds)
    finally:
        set_tracing(tracer, False)
        scratch.close()
    return out
