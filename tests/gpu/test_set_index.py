"""Cache set-index fast path vs the reference chunked XOR fold.

``SetAssociativeCache._set_index`` precomputes a doubling-shift XOR
cascade plus mask at construction when the set count is a power of
two; non-power-of-two set counts keep the exact legacy fold-then-
modulo.  These property sweeps pin both paths to the original
per-access fold loop, reproduced verbatim below.
"""

import random

import numpy as np
import pytest

from repro.gpu.cache import SetAssociativeCache
from repro.sim.replay import warm_back_vector, warm_through_vector


def reference_set_index(cache: SetAssociativeCache, line_address: int) -> int:
    """The pre-optimization implementation (verbatim)."""
    index = line_address >> cache._line_shift
    if cache._hash_sets:
        folded = index
        index = 0
        while folded:
            index ^= folded
            folded >>= cache._set_bits
    return index % cache._sets


GEOMETRIES = [
    # (sets, ways, line_bytes) — the shipped L1/LLC shapes plus edges.
    (32, 4, 128),     # L1
    (64, 8, 128),     # LLC slice
    (1, 1, 64),       # degenerate single set
    (2, 2, 32),       # 1-bit set index
    (256, 4, 128),    # larger pow2
    (1024, 16, 64),
]


def address_sweep(rng, line_bytes):
    """Structured + random addresses over the realistic space."""
    addresses = []
    # Power-of-two strides (the reason set hashing exists).
    for stride_bits in range(7, 24):
        for k in range(16):
            addresses.append((k << stride_bits) & 0xFFFFFFFF)
    # Dense low range, high range, random 32-bit and a few 64-bit.
    addresses.extend(range(0, 64 * line_bytes, line_bytes))
    addresses.extend(rng.randrange(1 << 30) for _ in range(500))
    addresses.extend(rng.randrange(1 << 32) for _ in range(500))
    addresses.extend(rng.randrange(1 << 62) for _ in range(100))
    return addresses


class TestSetIndexEquivalence:
    @pytest.mark.parametrize("sets,ways,line_bytes", GEOMETRIES)
    def test_hashed_pow2_matches_reference(self, sets, ways, line_bytes):
        cache = SetAssociativeCache(sets, ways, line_bytes)
        rng = random.Random(sets * 1000 + line_bytes)
        for address in address_sweep(rng, line_bytes):
            line = cache.line_address(address)
            assert cache._set_index(line) == reference_set_index(cache, line), (
                f"mismatch at 0x{line:x} ({sets} sets)"
            )

    def test_unhashed_matches_reference(self):
        cache = SetAssociativeCache(64, 8, 128, hash_sets=False)
        rng = random.Random(7)
        for address in address_sweep(rng, 128):
            line = cache.line_address(address)
            assert cache._set_index(line) == reference_set_index(cache, line)

    def test_index_always_in_range(self):
        rng = random.Random(99)
        for sets, ways, line_bytes in GEOMETRIES:
            cache = SetAssociativeCache(sets, ways, line_bytes)
            for _ in range(200):
                line = cache.line_address(rng.randrange(1 << 34))
                assert 0 <= cache._set_index(line) < sets

    def test_fast_path_only_for_pow2(self):
        assert SetAssociativeCache(64, 8, 128)._fold_shifts is not None
        assert SetAssociativeCache(64, 8, 128, hash_sets=False)._fold_shifts is None


def bulk_args(cache, lines, writes):
    """One cache's stream in the replay plane's array form."""
    lines = np.asarray(lines, dtype=np.int64)
    return (
        [cache], np.zeros(lines.size, dtype=np.int64), lines,
        np.asarray(writes, dtype=bool),
        cache.set_indices_array(lines.astype(np.uint64)),
    )


class TestWarmPaths:
    """The bulk warm replays must match the event-driven cache paths."""

    def test_warm_through_matches_l1_policy(self):
        """warm_through == try_read/count_miss/fill + write_through."""
        rng = random.Random(3)
        lines = [rng.randrange(64) * 128 for _ in range(400)]
        writes = [rng.random() < 0.3 for _ in range(400)]

        bulk = SetAssociativeCache(8, 2, 128)
        forwarded = np.flatnonzero(
            warm_through_vector(*bulk_args(bulk, lines, writes))
        ).tolist()

        step = SetAssociativeCache(8, 2, 128)
        expected_forward = []
        for position, (line, is_write) in enumerate(zip(lines, writes)):
            if is_write:
                step.write_through(line)
                expected_forward.append(position)
            elif step.try_read(line):
                pass
            else:
                step.stats.count_miss(is_write=False)
                step.fill(line)  # allocate-on-fill, collapsed in time
                expected_forward.append(position)
        assert forwarded == expected_forward
        assert bulk.stats == step.stats
        assert bulk.resident_lines() == step.resident_lines()

    def test_warm_back_matches_llc_policy(self):
        """warm_back == on_read/on_write tag behaviour, timeless."""
        rng = random.Random(5)
        lines = [rng.randrange(48) * 128 for _ in range(400)]
        writes = [rng.random() < 0.4 for _ in range(400)]

        bulk = SetAssociativeCache(4, 2, 128)
        miss_mask, wb_line = warm_back_vector(*bulk_args(bulk, lines, writes))
        miss_positions = np.flatnonzero(miss_mask).tolist()
        writebacks = wb_line[wb_line >= 0].tolist()

        step = SetAssociativeCache(4, 2, 128)
        expected_misses, expected_writebacks = [], []
        for position, (line, is_write) in enumerate(zip(lines, writes)):
            if is_write:
                if step.probe(line):
                    step.access(line, is_write=True)
                else:
                    step.stats.count_miss(is_write=True)
                    victim = step.fill(line, dirty=True)
                    if victim is not None:
                        expected_writebacks.append(victim)
            elif step.try_read(line):
                pass
            else:
                step.stats.count_miss(is_write=False)
                expected_misses.append(position)
                victim = step.fill(line)
                if victim is not None:
                    expected_writebacks.append(victim)
        assert miss_positions == expected_misses
        assert writebacks == expected_writebacks
        assert bulk.stats == step.stats
        assert bulk.resident_lines() == step.resident_lines()
