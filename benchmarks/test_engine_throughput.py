"""Event-engine throughput microbenchmark.

Pins the simulator's event-dispatch rate so engine regressions are
*measured*, not guessed.  Two layers:

* **Engine core** — a synthetic schedule shaped like the simulator's
  hot loop (dense same-cycle bursts plus short timer chains from ~64
  components: issue ticks, L1 latencies, NoC deliveries, DRAM wakes),
  driven through the engine's one scheduling call, ``at(time, fn, arg)``.

* **Valley-suite hot loop** — an end-to-end run of valley benchmarks
  under the BASE scheme, reporting events/sec, simulated cycles/sec
  and wall time.

Numbers land in ``benchmarks/results/BENCH_engine_throughput.json``
(machine-dependent, gitignored; CI uploads it as a build artifact so
the perf trajectory is visible per-PR).  The ``REFERENCE`` block
records the rates measured on the pre-rewrite engine (heap of
``(time, seq, lambda)`` tuples) on the same machine that developed the
calendar-queue engine, for before/after context.

The hard assertions are deliberately conservative floors — an order of
magnitude below the development machine's rates — so the bench fails
on a real regression (e.g. an accidental O(n log n) hot path or a
reintroduced per-event allocation storm), not on a slow CI runner.
"""

import json
import time
from pathlib import Path

from repro.core.address_map import hynix_gddr5_map
from repro.sim.engine import Engine
from repro.registry import make_scheme
from repro.sim.gpu_system import GPUSystem
from repro.workloads.suite import build_workload

RESULTS_DIR = Path(__file__).parent / "results"

# Delay mix mirroring the simulator's schedule profile: same-cycle
# flushes, 1-2 cycle port/bank ticks, NoC/L1-latency style hops.
DELAYS = (0, 1, 1, 2, 5, 28)
N_CHAINS = 64
N_EVENTS = 200_000

# Pre-rewrite engine rates measured on the development machine with
# this exact synthetic load and this exact valley loop (MT/LU/SC at
# scale 0.25, BASE scheme).
REFERENCE = {
    "engine": "heap[(time, seq, closure)] (pre calendar-queue)",
    "engine_core_events_per_sec": 760_000,
    "valley_loop_wall_sec": 0.748,
    "valley_loop_events": 147_227,
    "valley_loop_events_per_sec": 191_000,
    "valley_loop_cycles_per_sec": 57_000,
}

# Conservative CI floors (see module docstring).
MIN_ENGINE_CORE_EVENTS_PER_SEC = 200_000
MIN_VALLEY_EVENTS_PER_SEC = 10_000

VALLEY_LOOP = ("MT", "LU", "SC")
VALLEY_SCALE = 0.25


def _engine_core_rate() -> dict:
    engine = Engine()
    budget = [N_EVENTS]

    def tick(arg):
        budget[0] -= 1
        if budget[0] > 0:
            delay = DELAYS[budget[0] % len(DELAYS)]
            engine.at(engine.now + delay, tick, arg)

    for chain in range(N_CHAINS):
        engine.at(chain % 7, tick, chain)
    start = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - start
    return {
        "events": engine.events_processed,
        "wall_sec": round(wall, 4),
        "events_per_sec": round(engine.events_processed / wall),
    }


def _valley_loop_rate() -> dict:
    amap = hynix_gddr5_map()
    events = cycles = 0
    wall = 0.0
    per_bench = {}
    for bench in VALLEY_LOOP:
        workload = build_workload(bench, scale=VALLEY_SCALE)
        system = GPUSystem(make_scheme("BASE", amap))
        start = time.perf_counter()
        result = system.run(workload)
        elapsed = time.perf_counter() - start
        events += result.metadata["events"]
        cycles += result.cycles
        wall += elapsed
        per_bench[bench] = {
            "events": result.metadata["events"],
            "cycles": result.cycles,
            "wall_sec": round(elapsed, 4),
        }
    return {
        "benchmarks": per_bench,
        "scale": VALLEY_SCALE,
        "events": events,
        "cycles": cycles,
        "wall_sec": round(wall, 4),
        "events_per_sec": round(events / wall),
        "cycles_per_sec": round(cycles / wall),
    }


def test_engine_throughput():
    core = _engine_core_rate()
    valley = _valley_loop_rate()

    report = {
        "bench": "engine_throughput",
        "engine_core": core,
        "valley_loop": valley,
        "reference_pre_rewrite": REFERENCE,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_engine_throughput.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print()
    print(json.dumps(report, indent=2, sort_keys=True))

    assert core["events_per_sec"] >= MIN_ENGINE_CORE_EVENTS_PER_SEC
    assert valley["events_per_sec"] >= MIN_VALLEY_EVENTS_PER_SEC
