#!/usr/bin/env python3
"""Benchmark of the address-mapping simulator, its sweep runner and its
sweep service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact-valley --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it starting with ``#`` carry the machine fingerprint and the
named correctness checks.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-valley", "auto-screen", "serve-resweep")
# Inherited settings that would change what this process measures.
IGNORED_ENV = (
    "REPRO_WORKERS", "REPRO_FAULT_INJECT", "REPRO_REPLAY_BACKEND", "REPRO_PLUGINS",
)


def leftovers(timeout: float = 10.0) -> list:
    """Threads other than the main one and child processes still alive
    after waiting up to *timeout* seconds for them to finish."""
    deadline = time.monotonic() + timeout
    main = threading.main_thread()
    for thread in threading.enumerate():
        if thread is not main:
            thread.join(max(0.0, deadline - time.monotonic()))
    alive = [f"thread {t.name}" for t in threading.enumerate() if t is not main]
    alive += [f"process {p.pid}" for p in multiprocessing.active_children()]
    return alive


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs a few small configs (the smoke test uses it)",
    )
    args = parser.parse_args(argv)

    for name in IGNORED_ENV:
        os.environ.pop(name, None)
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no simulator sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))

    from calib import PROBE_ITERATIONS, Calibrator

    calib = Calibrator()
    calib.probe()
    started = time.perf_counter()
    import scenarios  # imports the simulator, the runner and the service
    from tracer import Tracer

    import_span = (started, time.perf_counter())
    calib.probe()
    import numpy

    size = scenarios.FULL if args.size == "full" else scenarios.TINY
    tracer = Tracer() if args.trace else None
    trace = bool(args.trace)
    if args.workload == "serve-resweep":
        outcome = scenarios.run_serve_workload(
            args.seed, args.seconds, trace, size, import_span, calib, tracer
        )
    else:
        outcome = scenarios.run_sweep_workload(
            args.workload, args.seed, args.seconds, trace, size, import_span,
            calib, tracer,
        )
    probe_ms = 1000 * calib.median_probe()
    fingerprint = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "calib_probe_ms": probe_ms,
        "calib_kops": PROBE_ITERATIONS / probe_ms,
        "probes": len(calib),
    }

    alive = leftovers()
    outcome.tally(1, int(bool(alive)), "nothing_left_running")
    for item in alive:
        print(f"# still running: {item}")

    if trace:
        values = dict(outcome.per_layer)
        values["fail_frac"] = outcome.failed / outcome.attempted
        values["machine.calib_kops"] = fingerprint["calib_kops"]
        wanted = spec["per_layer"]
    else:
        values = outcome.end_to_end
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(values) != names:
        print(
            f"error: measured metrics {sorted(set(values) ^ names)} do not "
            f"match BENCHMARK.json", file=sys.stderr,
        )
        return 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    print("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print("# checks " + json.dumps(outcome.checks, sort_keys=True))
    if outcome.uncalibrated:
        print("# uncalibrated " + json.dumps(outcome.uncalibrated, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
