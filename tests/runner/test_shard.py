"""Sharded sweep execution: partition invariants, merge identity, estimates.

The load-bearing guarantees of the distributed front-end:

* shards are pairwise disjoint, their union is the full grid, and the
  partition is stable across invocations (property-based over grids),
* ``repro merge`` output is byte-identical to an unsharded sweep,
* runtime estimates (the progress ETA) prefer recorded evidence,
* the claim protocol never loses results (steal, stale takeover).
"""

import json
import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    MergeError,
    ResultCache,
    RunConfig,
    SHARD_FORMAT,
    ShardSpec,
    SweepGrid,
    SweepRunner,
    default_workers,
    estimate_runtimes,
    merge_shard_reports,
    render_report,
    report_from_cache,
    shard_owner,
    shard_report,
    sweep_report,
)

SCALE = 0.25
GRID = SweepGrid(benchmarks=("SP", "HS"), schemes=("PAE",), scale=SCALE)


class TestShardSpec:
    def test_parse(self):
        spec = ShardSpec.parse("2/4")
        assert (spec.index, spec.count) == (2, 4)
        assert str(spec) == "2/4"

    @pytest.mark.parametrize("text", ["0/4", "5/4", "1/0", "x/y", "3", "-1/4", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            ShardSpec.parse(text)

    def test_round_trip_dict(self):
        spec = ShardSpec(index=3, count=7)
        assert ShardSpec.from_dict(spec.to_dict()) == spec

    def test_single_shard_owns_everything(self):
        spec = ShardSpec(index=1, count=1)
        configs = GRID.configs()
        assert spec.select(configs) == configs


# Grids built from axes that expand to tens of configs: enough keys for
# the partition properties to bite without running any simulation.
_GRIDS = st.builds(
    SweepGrid,
    benchmarks=st.sampled_from([
        ("SP",), ("SP", "HS"), ("MT", "LU", "SC", "SP"),
        ("MT", "LU", "SC", "SRAD2", "SP", "HS"),
    ]),
    schemes=st.sampled_from([("PAE",), ("PM", "PAE"), ("PM", "RMP", "PAE", "FAE")]),
    seeds=st.sampled_from([(0,), (0, 1), (0, 1, 2)]),
)


@settings(max_examples=25, deadline=None)
@given(grid=_GRIDS, count=st.integers(min_value=1, max_value=6))
def test_shards_partition_the_grid(grid, count):
    """Disjoint, covering, stable: the three sharding invariants."""
    configs = grid.configs()
    keys = [c.config_hash() for c in configs]
    selections = [
        ShardSpec(index=i, count=count).select(configs)
        for i in range(1, count + 1)
    ]
    # Disjoint and covering: every config lands in exactly one shard.
    seen = [c.config_hash() for shard in selections for c in shard]
    assert sorted(seen) == sorted(keys)
    # Order-preserving: each shard is a subsequence of the grid order.
    for shard in selections:
        indices = [keys.index(c.config_hash()) for c in shard]
        assert indices == sorted(indices)
    # Stable: re-partitioning yields identical subsets.
    again = [
        ShardSpec(index=i, count=count).select(configs)
        for i in range(1, count + 1)
    ]
    assert selections == again


def test_rendezvous_balance_and_stability():
    """HRW over many keys: roughly balanced, and growing N only moves
    keys onto the new shard (every other key keeps its owner)."""
    keys = [f"key-{i:05d}" for i in range(2000)]
    owners_4 = {k: shard_owner(k, 4) for k in keys}
    counts = [list(owners_4.values()).count(i) for i in range(1, 5)]
    assert sum(counts) == len(keys)
    assert min(counts) > len(keys) / 4 * 0.7, counts
    owners_5 = {k: shard_owner(k, 5) for k in keys}
    for k in keys:
        assert owners_5[k] in (owners_4[k], 5)


class TestMerge:
    @pytest.fixture(scope="class")
    def shared_cache(self, tmp_path_factory):
        """One warm cache shared by every merge test (4 small sims)."""
        cache_dir = tmp_path_factory.mktemp("shard-cache")
        runner = SweepRunner(cache_dir=cache_dir)
        sweep_report(GRID, runner)
        return cache_dir

    def _shards(self, shared_cache, count):
        return [
            shard_report(
                GRID, ShardSpec(index=i, count=count),
                SweepRunner(cache_dir=shared_cache),
            )
            for i in range(1, count + 1)
        ]

    def test_merge_is_byte_identical_to_single_sweep(self, shared_cache):
        single = render_report(
            sweep_report(GRID, SweepRunner(cache_dir=shared_cache))
        )
        for count in (1, 2, 4):
            merged = merge_shard_reports(self._shards(shared_cache, count))
            assert render_report(merged) == single, f"{count} shards"

    def test_shard_report_shape(self, shared_cache):
        report = shard_report(
            GRID, ShardSpec(index=1, count=2), SweepRunner(cache_dir=shared_cache)
        )
        assert report["format"] == SHARD_FORMAT
        assert report["shard"] == {"index": 1, "count": 2}
        assert "derived" not in report
        owned = ShardSpec(index=1, count=2).select(GRID.configs())
        assert [r["config"] for r in report["runs"]] == [
            c.to_dict() for c in owned
        ]

    def test_merge_from_cache_matches(self, shared_cache):
        single = render_report(
            sweep_report(GRID, SweepRunner(cache_dir=shared_cache))
        )
        merged = report_from_cache(GRID, ResultCache(shared_cache))
        assert render_report(merged) == single

    def test_merge_missing_shard_rejected(self, shared_cache):
        shards = self._shards(shared_cache, 4)
        with pytest.raises(MergeError, match=r"missing shard\(s\) \[3\]"):
            merge_shard_reports([shards[0], shards[1], shards[3]])

    def test_merge_duplicate_shard_rejected(self, shared_cache):
        shards = self._shards(shared_cache, 2)
        with pytest.raises(MergeError):
            merge_shard_reports([shards[0], shards[0]])

    def test_merge_grid_mismatch_rejected(self, shared_cache):
        other_grid = SweepGrid(benchmarks=("SP",), schemes=("PAE",), scale=SCALE)
        a = shard_report(
            GRID, ShardSpec(index=1, count=2), SweepRunner(cache_dir=shared_cache)
        )
        b = shard_report(
            other_grid, ShardSpec(index=2, count=2),
            SweepRunner(cache_dir=shared_cache),
        )
        with pytest.raises(MergeError, match="different grids"):
            merge_shard_reports([a, b])

    def test_merge_non_shard_report_rejected(self):
        with pytest.raises(MergeError, match="not a shard report"):
            merge_shard_reports([{"format": "repro-sweep-report/1"}])
        with pytest.raises(MergeError, match="no shard reports"):
            merge_shard_reports([])

    def test_merge_from_incomplete_cache_rejected(self, tmp_path):
        with pytest.raises(MergeError, match="not in cache"):
            report_from_cache(GRID, ResultCache(tmp_path / "empty"))


class TestScheduling:
    def test_estimates_prefer_recorded_runtimes(self):
        configs = [
            RunConfig("MT", "PAE", scale=0.5),
            RunConfig("SP", "PAE", scale=0.5),
            RunConfig("HS", "PAE", scale=0.5),
        ]
        metas = [
            # Exact-axes record for MT/PAE.
            {"benchmark": "MT", "scheme": "PAE", "scale": 0.5, "n_sms": 12,
             "memory": "gddr5", "wall_seconds": 8.0},
            # Same-benchmark record for SP at another scale: rate 4 s/scale.
            {"benchmark": "SP", "scheme": "BASE", "scale": 0.25, "n_sms": 12,
             "memory": "gddr5", "wall_seconds": 1.0},
        ]
        est = estimate_runtimes(configs, metas)
        assert est[0] == pytest.approx(8.0)       # exact mean
        assert est[1] == pytest.approx(2.0)       # 4 s/scale * 0.5
        # HS falls back to the global rate (mean of 8/0.5 and 1/0.25).
        assert est[2] == pytest.approx(((8.0 / 0.5) + (1.0 / 0.25)) / 2 * 0.5)

    def test_estimates_static_fallback_orders_by_size(self):
        small = RunConfig("SP", "PAE", scale=0.25)
        large = RunConfig("SP", "PAE", scale=1.0)
        est = estimate_runtimes([small, large], [])
        assert est[1] > est[0]

    def test_malformed_meta_ignored(self):
        config = RunConfig("SP", "PAE", scale=0.5)
        est = estimate_runtimes([config], [{"wall_seconds": "junk"}, {}])
        assert est[0] > 0


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_workers()

    def test_unset_uses_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1


class TestClaims:
    CONFIG = RunConfig("SP", "BASE", scale=SCALE)

    def test_claim_exclusive_and_released(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self.CONFIG.config_hash()
        assert cache.try_claim(key)
        assert not cache.try_claim(key)
        assert cache.claim_age(key) is not None
        cache.release_claim(key)
        assert cache.claim_age(key) is None
        assert cache.try_claim(key)

    def test_sweep_releases_claims_after_run(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path, claims=True)
        runner.run_one(self.CONFIG)
        assert runner.stats.executed == 1
        assert runner.cache.claim_age(self.CONFIG.config_hash()) is None

    def test_take_over_claim_semantics(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self.CONFIG.config_hash()
        # Absent claim: takeover degenerates to a fresh claim.
        assert cache.take_over_claim(key, ttl=60.0)
        # Fresh claim: refused.
        assert not cache.take_over_claim(key, ttl=60.0)
        # Stale claim: atomically replaced and owned.
        stale = time.time() - 3600
        os.utime(cache.claim_path_for(key), (stale, stale))
        assert cache.take_over_claim(key, ttl=60.0)
        # ... and the takeover refreshed the claim (no longer stale).
        assert cache.claim_age(key) < 60.0

    def test_record_written_before_claim_released(self, tmp_path):
        """A peer polling a claimed key must never observe the claim
        gone while the record is still missing (it would re-run)."""
        runner = SweepRunner(cache_dir=tmp_path, claims=True)
        events = []
        orig_put = runner.cache.put
        orig_release = runner.cache.release_claim
        runner.cache.put = lambda *a, **k: (events.append("put"), orig_put(*a, **k))[1]
        runner.cache.release_claim = (
            lambda key, nonce=None: (
                events.append("release"), orig_release(key, nonce)
            )[1]
        )
        runner.run_one(self.CONFIG)
        assert events.index("put") < events.index("release")

    def test_stale_claim_taken_over(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = self.CONFIG.config_hash()
        assert cache.try_claim(key)
        stale = time.time() - 3600
        os.utime(cache.claim_path_for(key), (stale, stale))
        runner = SweepRunner(cache_dir=tmp_path, claims=True, claim_ttl=60.0)
        runner.run_one(self.CONFIG)
        assert runner.stats.executed == 1

    def test_steals_result_from_live_peer(self, tmp_path):
        """A fresh foreign claim makes the runner poll; when the peer's
        record lands, it is consumed instead of re-run."""
        # Precompute the result without touching the shared cache.
        result = SweepRunner().run_one(self.CONFIG)
        cache = ResultCache(tmp_path)
        key = self.CONFIG.config_hash()
        assert cache.try_claim(key)  # the "peer" holds the claim

        def peer_finishes():
            ResultCache(tmp_path).put(self.CONFIG, result)

        timer = threading.Timer(0.15, peer_finishes)
        timer.start()
        try:
            runner = SweepRunner(
                cache_dir=tmp_path, claims=True,
                claim_ttl=60.0, claim_poll=0.02, claim_wait=10.0,
            )
            stolen = runner.run_one(self.CONFIG)
        finally:
            timer.cancel()
        assert stolen.to_dict() == result.to_dict()
        assert runner.stats.executed == 0
        assert runner.stats.cache_hits == 1

    def test_abandoned_claim_runs_locally_after_wait(self, tmp_path):
        """A live-looking claim that never produces a record is run
        locally once the wait budget expires — correctness first."""
        cache = ResultCache(tmp_path)
        key = self.CONFIG.config_hash()
        assert cache.try_claim(key)
        runner = SweepRunner(
            cache_dir=tmp_path, claims=True,
            claim_ttl=60.0, claim_poll=0.02, claim_wait=0.1,
        )
        result = runner.run_one(self.CONFIG)
        assert result is not None
        assert runner.stats.executed == 1


class TestShardedSweepStats:
    def test_shard_runs_only_its_slice(self, tmp_path):
        spec = ShardSpec(index=1, count=2)
        owned = spec.select(GRID.configs())
        runner = SweepRunner(cache_dir=tmp_path)
        report = shard_report(GRID, spec, runner)
        assert runner.stats.requested == len(owned)
        assert len(report["runs"]) == len(owned)

    def test_shard_reports_round_trip_through_json(self, tmp_path):
        cache = tmp_path / "cache"
        shards = [
            shard_report(GRID, ShardSpec(index=i, count=2),
                         SweepRunner(cache_dir=cache))
            for i in (1, 2)
        ]
        reloaded = [json.loads(json.dumps(s)) for s in shards]
        single = render_report(sweep_report(GRID, SweepRunner(cache_dir=cache)))
        assert render_report(merge_shard_reports(reloaded)) == single
