"""Wall-clock benchmark for the sweep runner and its result cache.

Measures the acceptance properties of the ``repro.runner`` subsystem:

* a **warm** (fully cached) sweep completes at least 10x faster than
  the **cold** sweep that populated the cache, with every run reported
  as a cache hit,
* the report JSON is byte-identical between 1 worker and N workers and
  between cold and warm runs.

The committed tables under ``benchmarks/results/`` hold only what is
deterministic (the grid, the run counts, the byte-identity verdict),
so regenerating them leaves the checkout clean.  Wall-clock numbers
land in the gitignored ``BENCH_sweep_*.json`` files, uploaded as a CI
artifact so the trajectory is tracked per change.

The default grid keeps tier-1 fast; set ``REPRO_SWEEP_BENCH_SCALE``
and ``REPRO_SWEEP_BENCH_FULL=1`` to benchmark the full valley suite at
paper scale (the ``slow``-marked variant, run in CI's non-blocking
benchmark job).
"""

import json
import os
import time

import pytest
from conftest import emit

from repro.core.schemes import SCHEME_NAMES
from repro.runner import SweepGrid, SweepRunner, render_report, sweep_report
from repro.workloads.suite import VALLEY_BENCHMARKS

SWEEP_SCALE = float(os.environ.get("REPRO_SWEEP_BENCH_SCALE", "0.25"))
SMALL_GRID = dict(
    benchmarks=("MT", "SP", "HS"), schemes=("PM", "PAE"), scale=SWEEP_SCALE
)
INVARIANCE_GRID = dict(
    benchmarks=("SP", "HS"), schemes=("PAE",), scale=SWEEP_SCALE
)


def _describe(grid_kwargs: dict, n_runs: int) -> str:
    """The deterministic grid line of a committed table."""
    return (
        f"grid: {n_runs} runs ({','.join(grid_kwargs['benchmarks'])} x "
        f"BASE+{'+'.join(grid_kwargs['schemes'])}, "
        f"scale {grid_kwargs['scale']})"
    )


def _timed_sweep(grid: SweepGrid, **runner_kwargs):
    """Sweep *grid* on a fresh runner, closed before returning.

    Returns ``(report, wall_seconds, stats)``.
    """
    with SweepRunner(**runner_kwargs) as runner:
        started = time.perf_counter()
        report = sweep_report(grid, runner)
        return report, time.perf_counter() - started, runner.stats


def _record_timings(results_dir, name: str, payload: dict) -> None:
    """Write machine-dependent wall clock to ``BENCH_<name>.json``."""
    out = results_dir / f"BENCH_{name}.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_sweep_cache_cold_vs_warm(benchmark, results_dir, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("sweep-cache")
    grid = SweepGrid(**SMALL_GRID)
    n_runs = len(grid.configs())

    cold_report, cold_seconds, cold_stats = benchmark.pedantic(
        _timed_sweep, args=(grid,), kwargs={"cache_dir": cache_dir},
        rounds=1, iterations=1,
    )
    assert cold_stats.executed == n_runs

    warm_report, warm_seconds, warm_stats = _timed_sweep(
        grid, cache_dir=cache_dir
    )
    # Acceptance: all runs are cache hits and the warm sweep is >= 10x
    # faster than the cold one.
    assert warm_stats.cache_hits == n_runs
    assert warm_stats.executed == 0
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    assert speedup >= 10.0, (
        f"warm sweep only {speedup:.1f}x faster "
        f"({cold_seconds:.2f}s cold vs {warm_seconds:.4f}s warm)"
    )

    # Acceptance: cold and warm reports are byte-identical.
    assert render_report(cold_report) == render_report(warm_report)

    _record_timings(results_dir, "sweep_runner", {
        "grid": grid.to_dict(),
        "runs": n_runs,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_speedup": round(speedup, 1),
    })
    emit(results_dir, "sweep_runner", "\n".join([
        "sweep runner cache benchmark",
        _describe(SMALL_GRID, n_runs),
        f"cold: {n_runs} simulated",
        f"warm: {n_runs} cache hits",
        "reports byte-identical: yes",
    ]))


def test_sweep_worker_count_invariance(results_dir):
    """Byte-identical JSON no matter how many workers ran the grid."""
    grid = SweepGrid(**INVARIANCE_GRID)
    serial_report, serial_seconds, _ = _timed_sweep(grid, workers=1)
    parallel_report, parallel_seconds, _ = _timed_sweep(grid, workers=2)
    assert render_report(serial_report) == render_report(parallel_report)
    _record_timings(results_dir, "sweep_worker_invariance", {
        "grid": grid.to_dict(),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "parallel_workers": 2,
    })
    emit(results_dir, "sweep_worker_invariance", "\n".join([
        "sweep worker-count invariance",
        _describe(INVARIANCE_GRID, len(grid.configs())),
        "serial: 1 worker, parallel: 2 workers",
        "reports byte-identical: yes",
    ]))


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_SWEEP_BENCH_FULL") != "1",
    reason="full-suite sweep benchmark; set REPRO_SWEEP_BENCH_FULL=1",
)
def test_full_suite_sweep_cold_warm(results_dir, tmp_path_factory):
    """The full default grid (valley suite x all schemes) at paper scale."""
    cache_dir = tmp_path_factory.mktemp("sweep-cache-full")
    grid = SweepGrid(
        benchmarks=VALLEY_BENCHMARKS, schemes=SCHEME_NAMES, scale=1.0
    )
    n_runs = len(grid.configs())
    cold_report, cold_seconds, _ = _timed_sweep(grid, cache_dir=cache_dir)
    warm_report, warm_seconds, warm_stats = _timed_sweep(
        grid, cache_dir=cache_dir
    )
    assert warm_stats.cache_hits == n_runs
    assert cold_seconds / max(warm_seconds, 1e-9) >= 10.0
    assert render_report(cold_report) == render_report(warm_report)
    _record_timings(results_dir, "sweep_runner_full", {
        "grid": grid.to_dict(),
        "runs": n_runs,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
    })
    emit(results_dir, "sweep_runner_full", "\n".join([
        "full-suite sweep cache benchmark",
        f"grid: {n_runs} runs (valley x {len(SCHEME_NAMES)} schemes, scale 1.0)",
        f"cold: {n_runs} simulated   warm: {n_runs} cache hits",
        "reports byte-identical: yes",
    ]))
