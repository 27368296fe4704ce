"""Failure policy, failure records, and the fault-injection harness.

Three pieces, all consumed by :class:`~repro.runner.sweep.SweepRunner`:

:class:`FailurePolicy`
    How the runner reacts to a failing run: per-run wall-clock
    timeouts (enforced by the parent via per-future deadlines — a hung
    simulation never returns on its own), bounded retries with
    exponential backoff and *deterministic* jitter (hash of the config
    key and attempt number, so two processes never sync their retry
    storms yet every test run is reproducible), and a pool-rebuild
    budget that stops a crash-looping environment from spinning
    forever.

:class:`RunFailure`
    The structured record of one quarantined config: the cache key,
    display names, the config dict, a failure ``kind``
    (``"exception"`` / ``"timeout"`` / ``"worker-crash"``), the last
    error text, how many attempts were made, and the wall seconds
    burned.  It flows through sweep reports (``"failures"`` section),
    ``repro sweep`` / ``repro merge`` (exit code 3 on partial
    success), and ``api.sweep(strict=...)``.

:class:`FaultPlan`
    Deterministic fault injection, so every recovery path above is
    testable in CI without flaky process murder.  A plan is parsed
    from a compact spec string — the ``REPRO_FAULT_INJECT``
    environment variable or the ``faults=`` runner argument — and
    threaded explicitly to :func:`~repro.runner.worker.execute_config_batch`
    (the string form crosses the process boundary, so pool workers see
    exactly the parent's plan).

Fault spec grammar
------------------
Semicolon-separated clauses, each ``MODE@TARGET[:PARAMS]``::

    raise@SP/PAE                  # SP/PAE raises on its first attempt
    raise@SP/PAE:times=2          # ... on its first two attempts
    raise@*/PM:times=inf          # every PM run raises, always (poison)
    hang@MT/BASE:seconds=60       # MT/BASE sleeps 60s (parent times out)
    exit@HS/*:code=137            # any HS run kills its worker (OOM-like)
    corrupt@SP/PM                 # first cache write of SP/PM is garbage
    cacheio@SP/PM:times=1         # first cache write raises OSError
    raise@rate=0.2                # each (key, attempt) fails w.p. 0.2,
                                  # decided by a stable hash (chaos mode)

``TARGET`` is ``BENCHMARK/SCHEME`` (either side may be ``*``) or
``rate=F[:salt=S]``.  ``times=N`` limits how many *attempts* of a
matching config fault (default 1 — a transient fault; ``inf`` never
stops — a poison config).  Rate clauses default to ``times=inf``: each
attempt is an independent, deterministic coin flip, so retries
eventually succeed.  Everything is a pure function of (clause, config
key, attempt): re-running a faulted sweep reproduces it exactly.

Injection sites: ``raise`` / ``hang`` / ``exit`` trigger in the worker
just before the simulation executes; ``corrupt`` / ``cacheio`` trigger
in :meth:`~repro.runner.cache.ResultCache.put` in whichever process
writes the record.  A config whose faults are exhausted executes
normally and produces a byte-identical result — injection never alters
*what* is computed, only whether an attempt survives.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "FAULT_ENV_VAR",
    "FailurePolicy",
    "FaultPlan",
    "FaultSpecError",
    "InjectedFault",
    "RunFailure",
    "SweepFailure",
]

FAULT_ENV_VAR = "REPRO_FAULT_INJECT"


def stable_fraction(text: str) -> float:
    """Deterministic uniform-ish fraction in [0, 1) from *text*.

    SHA-256 based, so it is stable across processes, platforms and
    Python hash randomization — retry jitter and rate-based fault
    draws must reproduce exactly.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault clause throws inside a worker."""


class FaultSpecError(ValueError):
    """A fault-injection spec string could not be parsed."""


@dataclass(frozen=True)
class FailurePolicy:
    """How a sweep reacts to failing runs.

    ``max_retries`` bounds *re*-executions per config: a config is
    attempted at most ``1 + max_retries`` times before it is
    quarantined.  ``timeout`` is the per-run wall-clock budget: a
    future gets ``timeout`` (+ grace) from its submission, which the
    runner makes only when a worker is free, before the parent
    declares it hung, kills the worker pool and retries it (pool mode
    only — inline execution cannot interrupt itself).  A crash-
    bisection probe of *k* configs runs as one future and gets
    ``k * timeout`` (+ grace).  Retries back off exponentially from
    ``backoff_base`` with deterministic jitter derived from the config
    key, so concurrent sweeps sharing a cache never retry in lockstep
    but test runs reproduce exactly.
    """

    max_retries: int = 2
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    timeout_grace: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    @property
    def max_attempts(self) -> int:
        """Total attempts allowed per config (first try + retries)."""
        return 1 + self.max_retries

    def backoff_seconds(self, key: str, attempt: int) -> float:
        """Delay before retry number *attempt* (1-based) of config *key*."""
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        return base * (1.0 + self.jitter * stable_fraction(f"{key}:retry:{attempt}"))

    def deadline_seconds(self, batch_size: int) -> Optional[float]:
        """Wall budget of one future of *batch_size* configs, or None
        when no timeout is set."""
        if self.timeout is None:
            return None
        return self.timeout * max(1, batch_size) + self.timeout_grace


@dataclass(frozen=True)
class RunFailure:
    """One quarantined config: everything a report needs to explain it."""

    key: str
    benchmark: str
    scheme: str
    config: Dict[str, object]
    kind: str  # "exception" | "timeout" | "worker-crash"
    error: str
    attempts: int
    wall_seconds: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "config": self.config,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
            "wall_seconds": round(float(self.wall_seconds), 6),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunFailure":
        return cls(
            key=str(data["key"]),
            benchmark=str(data["benchmark"]),
            scheme=str(data["scheme"]),
            config=dict(data["config"]),
            kind=str(data["kind"]),
            error=str(data["error"]),
            attempts=int(data["attempts"]),
            wall_seconds=float(data["wall_seconds"]),
        )

    def describe(self) -> str:
        return (
            f"{self.benchmark}/{self.scheme} [{self.kind}] after "
            f"{self.attempts} attempt(s): {self.error}"
        )


class SweepFailure(RuntimeError):
    """Raised by strict sweeps when any config was quarantined.

    Carries the full :class:`RunFailure` list so callers can inspect
    (or report) exactly what was lost; every *healthy* config still
    completed before this is raised — fail-at-the-end, not fail-fast.
    """

    def __init__(self, failures: List[RunFailure]) -> None:
        self.failures = list(failures)
        lines = "; ".join(f.describe() for f in self.failures[:4])
        more = len(self.failures) - 4
        if more > 0:
            lines += f"; ... and {more} more"
        super().__init__(
            f"{len(self.failures)} config(s) failed permanently: {lines}"
        )


_MODES = ("raise", "hang", "exit", "corrupt", "cacheio")


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a fault spec (see module docstring)."""

    mode: str
    benchmark: Optional[str] = None  # None = any ('*')
    scheme: Optional[str] = None
    rate: Optional[float] = None
    salt: str = ""
    times: float = 1.0  # attempts that fault; math.inf = poison
    seconds: float = 600.0  # hang duration
    code: int = 137  # exit status

    def triggers(self, benchmark: str, scheme: str, key: str, attempt: int) -> bool:
        """Does this clause fire for *attempt* (0-based) of this config?"""
        if self.rate is not None:
            draw = stable_fraction(f"{key}:fault:{self.salt}:{attempt}")
            return attempt < self.times and draw < self.rate
        if self.benchmark is not None and self.benchmark != benchmark:
            return False
        if self.scheme is not None and self.scheme != scheme:
            return False
        return attempt < self.times


def _parse_clause(text: str) -> FaultClause:
    head, sep, target = text.partition("@")
    mode = head.strip().lower()
    if not sep or mode not in _MODES:
        raise FaultSpecError(
            f"bad fault clause {text!r}: expected MODE@TARGET[:PARAMS] with "
            f"MODE one of {', '.join(_MODES)}"
        )
    target, _, param_text = target.partition(":")
    target = target.strip()
    params: Dict[str, str] = {}
    if param_text:
        for chunk in param_text.split(","):
            name, eq, value = chunk.partition("=")
            if not eq:
                raise FaultSpecError(f"bad fault parameter {chunk!r} in {text!r}")
            params[name.strip().lower()] = value.strip()

    kwargs: Dict[str, object] = {"mode": mode}
    if target.lower().startswith("rate="):
        try:
            rate = float(target[5:])
        except ValueError:
            raise FaultSpecError(f"bad fault rate in {text!r}") from None
        if not 0.0 <= rate <= 1.0:
            raise FaultSpecError(f"fault rate must be in [0, 1], got {rate}")
        kwargs["rate"] = rate
        kwargs["times"] = math.inf  # independent draw per attempt
    else:
        bench, sep2, scheme = target.partition("/")
        if not sep2:
            raise FaultSpecError(
                f"bad fault target {target!r} in {text!r}: expected "
                f"BENCHMARK/SCHEME (either may be '*') or rate=F"
            )
        kwargs["benchmark"] = None if bench.strip() == "*" else bench.strip().upper()
        kwargs["scheme"] = None if scheme.strip() == "*" else scheme.strip().upper()

    for name, value in params.items():
        if name == "times":
            kwargs["times"] = (
                math.inf if value.lower() in ("inf", "*") else float(int(value))
            )
        elif name == "seconds":
            kwargs["seconds"] = float(value)
        elif name == "code":
            kwargs["code"] = int(value)
        elif name == "salt":
            kwargs["salt"] = value
        elif name == "rate":
            raise FaultSpecError(
                f"rate belongs in the target (MODE@rate=F), not params: {text!r}"
            )
        else:
            raise FaultSpecError(f"unknown fault parameter {name!r} in {text!r}")
    return FaultClause(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, deterministic fault-injection plan.

    ``spec`` round-trips: it is the exact string the plan was parsed
    from, which is how the plan crosses the process boundary to pool
    workers (objects cannot — they would need the worker to share the
    parent's memory).
    """

    spec: str
    clauses: tuple = field(default=())

    @classmethod
    def parse(cls, spec: Optional[str]) -> Optional["FaultPlan"]:
        """Parse a spec string; ``None`` / blank specs mean no plan."""
        if spec is None:
            return None
        if isinstance(spec, FaultPlan):
            return spec
        spec = spec.strip()
        if not spec:
            return None
        clauses = tuple(
            _parse_clause(chunk.strip())
            for chunk in spec.split(";")
            if chunk.strip()
        )
        if not clauses:
            return None
        return cls(spec=spec, clauses=clauses)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``$REPRO_FAULT_INJECT``, or None."""
        return cls.parse(os.environ.get(FAULT_ENV_VAR))

    # -- worker-side execution faults -----------------------------------
    def apply(
        self,
        benchmark: str,
        scheme: str,
        key: str,
        attempt: int,
        allow_exit: bool = True,
    ) -> None:
        """Trigger the first matching execution fault, if any.

        Called just before a config is simulated.  ``raise`` throws
        :class:`InjectedFault`; ``hang`` sleeps (the parent's timeout
        is what ends it); ``exit`` kills the process like the OOM
        killer would.  With ``allow_exit=False`` (inline execution in
        the parent process) ``exit`` degrades to ``raise`` — killing
        the orchestrating process would be self-defeating.
        """
        for clause in self.clauses:
            if clause.mode in ("corrupt", "cacheio"):
                continue
            if not clause.triggers(benchmark, scheme, key, attempt):
                continue
            if clause.mode == "hang":
                time.sleep(clause.seconds)
                return
            if clause.mode == "exit" and allow_exit:
                os._exit(clause.code)
            raise InjectedFault(
                f"injected {clause.mode} fault: {benchmark}/{scheme} "
                f"attempt {attempt}"
            )

    # -- cache-side faults ----------------------------------------------
    def cache_fault(
        self, benchmark: str, scheme: str, key: str, write_index: int
    ) -> Optional[str]:
        """``"corrupt"`` / ``"cacheio"`` for this record write, else None.

        *write_index* counts this process's writes of *key* (the
        cache's job to track), so ``times=N`` corrupts the first N
        writes and lets self-healing succeed afterwards.
        """
        for clause in self.clauses:
            if clause.mode not in ("corrupt", "cacheio"):
                continue
            if clause.triggers(benchmark, scheme, key, write_index):
                return clause.mode
        return None
