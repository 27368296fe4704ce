"""Content-addressed on-disk result cache.

Layout (under the cache root)::

    <root>/
      <hh>/<full-64-hex-hash>.json        # hh = first two hash chars
      <hh>/<full-64-hex-hash>.meta.json   # runtime metadata sidecar
      <hh>/<full-64-hex-hash>.claim       # transient work claim

Each result record is one JSON object::

    {
      "config": {...RunConfig.to_dict()...},
      "result": {...SimulationResult.to_dict()...}
    }

The **metadata sidecar** is advisory: it records how the result was
produced (wall seconds, engine events, the ``CACHE_SCHEMA_VERSION`` it
was computed under, and the config axes that predict runtime) so the
sweep runner can estimate a progress ETA and ``repro cache ls /
prune`` can report and evict by schema version.  Results are always
correct without sidecars — a missing or corrupt sidecar only degrades
the ETA back to static estimates.

Writes are atomic (temp file + ``os.replace``) so a crashed or killed
sweep can never leave a half-written record behind; a record that is
nevertheless unreadable or malformed (truncated by the filesystem,
hand-edited, wrong schema) is treated as a miss, deleted, and counted
in :attr:`CacheStats.corrupt` — the run is simply recomputed.

The cache is safe for concurrent use by multiple processes: records
are immutable once written (content-addressed by the config hash), and
the atomic rename makes racing writers idempotent.  **Claim files**
(:meth:`ResultCache.try_claim`) let concurrent sweeps additionally
avoid duplicating work: a process that fails to create the claim knows
a peer is already computing that key and may poll for the record
instead of re-running it.  Claims are purely an optimization — stale
claims (dead peers) are detected by age and broken, and correctness
never depends on them.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.serialize import canonical_json, stable_hash
from ..sim.fidelity import fidelity_kind
from ..sim.results import SimulationResult
from .config import CACHE_SCHEMA_VERSION, RunConfig
from .faults import FaultPlan

__all__ = ["ResultCache", "CacheStats", "CacheEntry"]

_META_SUFFIX = ".meta.json"
_CLAIM_SUFFIX = ".claim"


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


@dataclass(frozen=True)
class CacheEntry:
    """One record as seen by ``repro cache ls`` (metadata may be absent).

    ``mtime`` is the record file's modification time — advisory, used
    only for oldest-first quota eviction and operator listings, never
    for correctness.
    """

    key: str
    path: Path
    size_bytes: int
    schema: Optional[int]
    wall_seconds: Optional[float]
    benchmark: Optional[str]
    scheme: Optional[str]
    mtime: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (``repro cache ls --json``, quota accounting)."""
        return {
            "key": self.key,
            "size_bytes": self.size_bytes,
            "schema": self.schema,
            "wall_seconds": self.wall_seconds,
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "mtime": self.mtime,
        }


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """JSON result records keyed by the stable config hash.

    *faults* is an optional :class:`~repro.runner.faults.FaultPlan`
    (or spec string) whose ``corrupt`` / ``cacheio`` clauses are
    applied on :meth:`put` — the deterministic stand-in for a
    filesystem that truncates records or raises I/O errors, used by
    the fault-injection test harness.  Without a plan, writes are
    untouched.
    """

    def __init__(self, root, faults: Optional[FaultPlan] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._faults = FaultPlan.parse(faults) if isinstance(faults, str) else faults
        self._write_counts: Dict[str, int] = {}

    def path_for(self, key: str) -> Path:
        """On-disk location of the record for cache key *key*."""
        return self.root / key[:2] / f"{key}.json"

    def meta_path_for(self, key: str) -> Path:
        """On-disk location of the runtime-metadata sidecar for *key*."""
        return self.root / key[:2] / f"{key}{_META_SUFFIX}"

    def claim_path_for(self, key: str) -> Path:
        """On-disk location of the work-claim file for *key*."""
        return self.root / key[:2] / f"{key}{_CLAIM_SUFFIX}"

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def _load(self, path: Path) -> Optional[SimulationResult]:
        """Read one record; None if absent; self-heal corrupt records."""
        try:
            with open(path) as handle:
                record = json.load(handle)
            return SimulationResult.from_dict(record["result"])
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Unreadable or malformed record: drop it and recompute.
            self.stats.corrupt += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def get(self, config: RunConfig) -> Optional[SimulationResult]:
        """Look up *config*; None on miss.  Corrupt records self-heal."""
        result = self._load(self.path_for(config.config_hash()))
        if result is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return result

    def peek(self, config: RunConfig) -> Optional[SimulationResult]:
        """Like :meth:`get` but without hit/miss accounting.

        Used by claim polling, which re-reads the same key many times
        while a peer computes it; counting each poll as a miss would
        make the stats meaningless.
        """
        return self._load(self.path_for(config.config_hash()))

    def put(
        self,
        config: RunConfig,
        result: SimulationResult,
        wall_seconds: Optional[float] = None,
    ) -> Path:
        """Store *result* under *config*'s hash (atomic, idempotent).

        When *wall_seconds* is given, a metadata sidecar is written
        next to the record; sidecar failures are swallowed (metadata is
        advisory, the record itself is what matters).  May raise
        :class:`OSError` on real (or injected) I/O failure — callers
        treat the cache as an optimization and must survive that.
        """
        key = config.config_hash()
        path = self.path_for(key)
        record = {"config": config.to_dict(), "result": result.to_dict()}
        text = canonical_json(record) + "\n"
        if self._faults is not None:
            index = self._write_counts.get(key, 0)
            self._write_counts[key] = index + 1
            fault = self._faults.cache_fault(
                config.benchmark_name, config.scheme_name, key, index
            )
            if fault == "cacheio":
                raise OSError(
                    f"injected cache I/O fault writing {key[:16]} "
                    f"({config.benchmark_name}/{config.scheme_name})"
                )
            if fault == "corrupt":
                # A torn write: half the record, no closing brace.
                text = text[: max(8, len(text) // 2)]
        _atomic_write(path, text)
        self.stats.stores += 1
        if wall_seconds is not None:
            meta = {
                "schema": CACHE_SCHEMA_VERSION,
                "wall_seconds": round(float(wall_seconds), 6),
                "events": result.metadata.get("events"),
                "benchmark": config.benchmark_name,
                "scheme": config.scheme_name,
                "scale": config.scale,
                "n_sms": config.n_sms,
                "memory": config.memory,
                "fidelity": fidelity_kind(config.fidelity),
            }
            try:
                _atomic_write(self.meta_path_for(key), canonical_json(meta) + "\n")
            except OSError:
                pass
        return path

    def get_meta(self, key: str) -> Optional[Dict[str, object]]:
        """The runtime-metadata sidecar for *key*, or None."""
        try:
            with open(self.meta_path_for(key)) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def runtime_metadata(self) -> List[Dict[str, object]]:
        """Every readable metadata sidecar (feeds runtime estimation)."""
        metas = []
        for path in sorted(self.root.glob(f"*/*{_META_SUFFIX}")):
            try:
                with open(path) as handle:
                    data = json.load(handle)
            except (OSError, ValueError):
                continue
            if isinstance(data, dict) and data.get("wall_seconds") is not None:
                metas.append(data)
        return metas

    # ------------------------------------------------------------------
    # Inspection and pruning (``repro cache``)
    # ------------------------------------------------------------------
    def _record_paths(self) -> Iterator[Path]:
        for path in sorted(self.root.glob("*/*.json")):
            if not path.name.endswith(_META_SUFFIX):
                yield path

    def schema_of(self, key: str) -> Optional[int]:
        """Which ``CACHE_SCHEMA_VERSION`` produced the record for *key*.

        Prefers the sidecar; without one, probes every version up to
        the current one by re-hashing the record's embedded config
        (the key mixes the version in, so exactly one probe matches).
        Returns None when the record is unreadable or from a foreign
        schema newer than this code.
        """
        meta = self.get_meta(key)
        if meta is not None and isinstance(meta.get("schema"), int):
            return int(meta["schema"])
        try:
            with open(self.path_for(key)) as handle:
                payload = dict(json.load(handle)["config"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        for version in range(1, CACHE_SCHEMA_VERSION + 1):
            payload["__schema__"] = version
            if stable_hash(payload) == key:
                return version
        return None

    def entries(self) -> List[CacheEntry]:
        """All records on disk, with whatever metadata is available."""
        out = []
        for path in self._record_paths():
            key = path.stem
            meta = self.get_meta(key) or {}
            schema = meta.get("schema")
            if not isinstance(schema, int):
                schema = self.schema_of(key)
            wall = meta.get("wall_seconds")
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent prune/evict
            out.append(CacheEntry(
                key=key,
                path=path,
                size_bytes=stat.st_size,
                schema=schema,
                wall_seconds=float(wall) if wall is not None else None,
                benchmark=meta.get("benchmark"),
                scheme=meta.get("scheme"),
                mtime=stat.st_mtime,
            ))
        return out

    def usage(self) -> Dict[str, int]:
        """Total footprint: ``{"entries": N, "bytes": B}`` (records only)."""
        entries = bytes_total = 0
        for path in self._record_paths():
            try:
                bytes_total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {"entries": entries, "bytes": bytes_total}

    def remove(self, key: str) -> None:
        """Delete the record, sidecar and claim for *key* (if present)."""
        for path in (
            self.path_for(key), self.meta_path_for(key), self.claim_path_for(key)
        ):
            try:
                os.unlink(path)
            except OSError:
                pass

    def prune(
        self,
        schema_versions: Optional[Sequence[int]] = None,
        stale: bool = False,
    ) -> Tuple[int, int]:
        """Evict records by schema version; returns ``(removed, kept)``.

        *schema_versions* lists versions to evict.  *stale* evicts
        everything not produced under the current
        :data:`~repro.runner.config.CACHE_SCHEMA_VERSION` — including
        records whose schema cannot be determined (they are unreadable
        by current code anyway).
        """
        targets = set(schema_versions or ())
        removed = kept = 0
        for entry in self.entries():
            evict = entry.schema in targets
            if stale and entry.schema != CACHE_SCHEMA_VERSION:
                evict = True
            if evict:
                self.remove(entry.key)
                removed += 1
            else:
                kept += 1
        return removed, kept

    # ------------------------------------------------------------------
    # Claims
    # ------------------------------------------------------------------
    def _claim_nonce(self) -> str:
        return f"{os.getpid()}@{socket.gethostname()}:{time.time_ns()}"

    def try_claim(self, key: str) -> Optional[str]:
        """Atomically claim *key* for this process.

        The claim is a small JSON marker created with ``O_EXCL`` so
        exactly one of any number of racing processes wins.  Returns
        the claim's nonce (truthy) when this process now owns it —
        pass it to :meth:`release_claim` so only *this* claim is ever
        released, never a successor's — or None when a peer holds it.
        """
        path = self.claim_path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return None
        nonce = self._claim_nonce()
        with os.fdopen(fd, "w") as handle:
            json.dump(
                {"pid": os.getpid(), "host": socket.gethostname(),
                 "started": time.time(), "nonce": nonce},
                handle,
            )
        return nonce

    def claim_age(self, key: str) -> Optional[float]:
        """Seconds since the claim on *key* was created; None if unclaimed."""
        try:
            return max(0.0, time.time() - self.claim_path_for(key).stat().st_mtime)
        except OSError:
            return None

    def take_over_claim(self, key: str, ttl: float) -> Optional[str]:
        """Take over the claim on *key* if it is older than *ttl* seconds.

        Racing takeovers are resolved by atomically replacing the stale
        claim with a nonce-tagged one and reading it back: the last
        replacer finds its own nonce and wins, every other contender
        sees a foreign nonce and defers.  (A plain unlink-then-claim
        would let a loser delete the winner's fresh claim.)  Returns
        the new claim's nonce (truthy) when this process now owns it,
        None otherwise.
        """
        path = self.claim_path_for(key)
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            # Claim vanished meanwhile: race for a fresh one.
            return self.try_claim(key)
        if age <= ttl:
            return None
        nonce = self._claim_nonce()
        payload = json.dumps({
            "pid": os.getpid(), "host": socket.gethostname(),
            "started": time.time(), "nonce": nonce,
        })
        try:
            _atomic_write(path, payload)
            with open(path) as handle:
                if json.load(handle).get("nonce") == nonce:
                    return nonce
                return None
        except (OSError, ValueError):
            return None

    def release_claim(self, key: str, nonce: Optional[str] = None) -> None:
        """Drop the claim on *key* (no-op when absent).

        With *nonce*, release only if the on-disk claim still carries
        it: after this process's claim has already been released, a
        *new* peer may have claimed the same key, and an unconditional
        unlink would delete that peer's live claim (a third process
        would then double-run the config).  Without a nonce the unlink
        is unconditional (legacy / cleanup use).
        """
        path = self.claim_path_for(key)
        if nonce is not None:
            try:
                with open(path) as handle:
                    if json.load(handle).get("nonce") != nonce:
                        return  # someone else's claim — leave it
            except (OSError, ValueError):
                return  # no claim (or unreadable): nothing of ours to drop
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of result records currently on disk (sidecars excluded)."""
        return sum(1 for _ in self._record_paths())

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r}, {self.stats.as_dict()})"
