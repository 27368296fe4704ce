#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about half a minute).

Runs every workload at the tiny size, untraced and traced, each in its
own process, and checks that:

1. every metric named in ``BENCHMARK.json`` prints, with its unit;
2. nothing failed (``failed == 0``, and ``fail_frac == 0`` when traced);
3. the traced run's reports equal the untraced ones (the benchmark's
   report checks pass in the traced run);
4. nothing is left running: the run found no stray thread or child
   process, exited 0, and removed its scratch directory.

It also checks that, in a directory holding only ``BENCHMARK.json`` and
``perfbench/``, the benchmark exits non-zero without printing a result.
Run from the root of a checkout: ``python3 perfbench/smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-valley", "auto-screen", "serve-resweep")


def run(cwd: Path, workload: str, trace: int, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(workload: str, trace: int, spec: dict) -> list:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    checks = {}
    for line in lines:
        if line.startswith("# checks "):
            checks = json.loads(line[len("# checks "):])
    problems = []
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{where}: {metric['name']} missing or wrong unit: {got}")
    if result["failed"] != 0 or not result["correct"]:
        problems.append(
            f"{where}: failed {result['failed']} of {result['attempted']}: {checks}"
        )
    if trace and result["metrics"]["fail_frac"]["value"] != 0:
        problems.append(f"{where}: fail_frac != 0")
    reports = [k for k in checks if k.endswith("_reports")]
    if not reports or not all(checks[k] for k in reports):
        problems.append(f"{where}: report checks {checks}")
    if not checks.get("nothing_left_running"):
        problems.append(f"{where}: left something running: {lines}")
    if (ROOT / ".perfbench-tmp").exists():
        problems.append(f"{where}: scratch directory left behind")
    return problems


def check_bare_directory() -> list:
    """Without the sources, the benchmark must fail and print no result."""
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "exact-valley", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
