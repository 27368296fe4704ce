"""The functional replay plane.

The sampled/auto fidelity modes push large op streams through the
warmed L1/LLC/DRAM-row state with no engine events (see
:meth:`GPUSystem._replay_ops`).  This module does that work with a
structure-of-arrays engine: ops are grouped by (cache, set) with one
stable argsort, the tag/LRU/dirty state of every touched set is staged
into dense numpy arrays, and the stream is consumed in *rounds* —
round ``k`` applies the k-th op of every still-active group at once
(broadcast tag compare, masked argmin victim selection).  Ragged tails
(a few hot sets with many more ops than the rest) drop back to a
per-op dict loop once the round width collapses, and sparse streams
skip the grouping altogether.  DRAM traffic is replayed with one
whole-channel pass per controller
(:meth:`~repro.dram.controller.MemoryController.replay_traffic`).

**Equivalence contract** (enforced by ``tests/sim/test_replay_equiv.py``
against the scalar per-op reference in ``tests/sim/replay_reference.py``
and the CI replay-equivalence job): the replay leaves the *observable*
state a per-op, per-cache pass in stream order would — every stats
counter (cache hits/misses, evictions, writebacks, DRAM
activates/row-hits/conflicts, power-model inputs), the forwarded-op
set, the DRAM traffic streams (order included), the open rows, and the
resident (line, dirty) contents of every cache set in the same recency
order.  Only the internal LRU tick values differ (each touched op is
stamped with its stream position instead of a per-bump counter), which
is unobservable: victim selection depends only on the relative recency
order *within* a set, and the absolute counter never reaches a report.

The module also owns the **kernel-stream** form used by the
cross-run warmed-state cache
(:class:`~repro.runner.state_cache.StateCache`): an estimated
kernel's replay stream as raw (pre-mapping) addresses plus TB
ordinals.  The stream is a pure function of the workload and the
machine geometry — never of the mapping scheme (fingerprints and
interleave order are scheme-independent), which is exactly why it can
be cached without the scheme in its key; each scheme's run maps the
raw addresses once (one GF(2) pass) and replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "replay_ops",
    "warm_through_vector",
    "warm_back_vector",
    "KernelStream",
    "build_kernel_stream",
]

# Round width below which the grouped pass stops and the remaining
# (ragged-tail) groups finish on the per-op dict loop: with only a
# handful of active groups per round, numpy call overhead exceeds the
# dict work it replaces.
_TAIL_CUTOFF = 24

# Mean ops-per-(cache, set) group below which the grouped engine is
# skipped outright: staging every touched set into dense arrays and
# back costs a Python loop over groups, which only amortizes when
# each group carries many ops.  Sparse streams (the common case at
# small scales, where most sets see a handful of ops) run the direct
# per-op pass instead.
# Measured crossover (random streams, 1-16 caches, 64-256 sets):
# grouped pulls ahead of direct at ~12-16 ops/group and reaches
# ~3-4x at >=64 ops/group.
_DENSE_OPS_PER_GROUP = 12

_INT64_MAX = np.iinfo(np.int64).max


# ----------------------------------------------------------------------
# Grouped set-associative warm passes
# ----------------------------------------------------------------------
def _grouped_warm(
    caches: Sequence,
    cache_ids: np.ndarray,
    lines: np.ndarray,
    writes: np.ndarray,
    set_ids: np.ndarray,
    write_back: bool,
):
    """Shared engine of the vectorized warm passes.

    All *caches* share one geometry; ops are grouped by ``cache * sets
    + set`` and consumed in rounds.  Returns per-op outcome arrays
    ``(hit, evicted, wb_line)`` — ``wb_line`` (write-back policy only)
    holds the dirty victim's line address or -1.

    Recency stamps: op ``p`` touching its set is stamped ``base(cache)
    + 1 + p``, strictly increasing in op order per cache, so the
    relative LRU order inside every set matches a per-op pass exactly
    even though the absolute values differ (see module docstring).
    Afterwards each touched cache's counter is advanced past every
    stamp.
    """
    n = int(lines.size)
    hit = np.zeros(n, dtype=bool)
    evicted = np.zeros(n, dtype=bool)
    wb_line = np.full(n, -1, dtype=np.int64) if write_back else None
    if not n:
        return hit, evicted, wb_line

    n_sets = caches[0].sets
    ways = caches[0].ways

    group = cache_ids * np.int64(n_sets) + set_ids
    order = np.argsort(group, kind="stable")
    g_sorted = group[order]
    uniq, starts, counts = np.unique(
        g_sorted, return_index=True, return_counts=True
    )
    n_groups = uniq.size
    if n < _DENSE_OPS_PER_GROUP * n_groups:
        return _direct_warm(
            caches, cache_ids, lines, writes, set_ids, write_back,
            hit, evicted, wb_line,
        )

    bases = np.asarray([c.use_counter for c in caches], dtype=np.int64)
    rec = bases[cache_ids] + 1 + np.arange(n, dtype=np.int64)

    # Stage the touched sets' state into dense arrays.
    tags = np.full((n_groups, ways), -1, dtype=np.int64)
    use = np.zeros((n_groups, ways), dtype=np.int64)
    dirty = np.zeros((n_groups, ways), dtype=bool)
    group_sets = []  # the live dict per group, for staging back
    for gi in range(n_groups):
        g = int(uniq[gi])
        entry_set = caches[g // n_sets].set_entries(g % n_sets)
        group_sets.append(entry_set)
        for way, (line, entry) in enumerate(entry_set.items()):
            tags[gi, way] = line
            use[gi, way] = entry[0]
            dirty[gi, way] = bool(entry[1])

    # Round k applies the k-th op of every group still holding one.
    # Distinct groups never share a set, so the fancy-indexed updates
    # of one round are conflict-free.
    active = np.arange(n_groups)
    k = 0
    while active.size:
        if k > 0 and active.size < _TAIL_CUTOFF:
            break  # ragged tail: cheaper per-op (see below)
        pos = order[starts[active] + k]
        ln = lines[pos]
        wr = writes[pos]
        match = tags[active] == ln[:, None]
        is_hit = match.any(axis=1)
        hit[pos] = is_hit

        hit_rows = np.flatnonzero(is_hit)
        if hit_rows.size:
            g = active[hit_rows]
            way = match[hit_rows].argmax(axis=1)
            use[g, way] = rec[pos[hit_rows]]
            if write_back:
                dirty[g, way] |= wr[hit_rows]

        miss_rows = np.flatnonzero(~is_hit)
        if miss_rows.size:
            # L1 (write-through, no-write-allocate): only read misses
            # allocate; write misses touch nothing.  LLC (write-back,
            # write-allocate): every miss allocates.
            alloc = miss_rows if write_back else miss_rows[~wr[miss_rows]]
            if alloc.size:
                g = active[alloc]
                occupied = tags[g] >= 0
                full = occupied.all(axis=1)
                free_way = (~occupied).argmax(axis=1)
                victim_way = np.where(
                    occupied, use[g], _INT64_MAX
                ).argmin(axis=1)
                way = np.where(full, victim_way, free_way)
                evicted[pos[alloc]] = full
                if write_back:
                    full_rows = np.flatnonzero(full)
                    if full_rows.size:
                        victim_dirty = dirty[g[full_rows], way[full_rows]]
                        dirty_rows = full_rows[victim_dirty]
                        if dirty_rows.size:
                            wb_line[pos[alloc[dirty_rows]]] = tags[
                                g[dirty_rows], way[dirty_rows]
                            ]
                tags[g, way] = ln[alloc]
                use[g, way] = rec[pos[alloc]]
                dirty[g, way] = wr[alloc] if write_back else False
        k += 1
        active = active[counts[active] > k]

    # Stage the array state back into the live dicts (ways ordered by
    # recency, so the rebuilt iteration order is deterministic).
    for gi in range(n_groups):
        valid = np.flatnonzero(tags[gi] >= 0)
        ordered = valid[np.argsort(use[gi, valid], kind="stable")]
        entry_set = group_sets[gi]
        entry_set.clear()
        for way in ordered.tolist():
            entry_set[int(tags[gi, way])] = [
                int(use[gi, way]), bool(dirty[gi, way])
            ]

    # Finish the ragged tails per op against the (now live) dicts.
    # The same rec stamps apply, so per-set recency order still
    # matches op order.
    if active.size:
        for gi in active.tolist():
            entry_set = group_sets[gi]
            tail = order[starts[gi] + k: starts[gi] + counts[gi]]
            for p in tail.tolist():
                line = int(lines[p])
                is_write = bool(writes[p])
                entry = entry_set.get(line)
                if entry is not None:
                    hit[p] = True
                    entry[0] = int(rec[p])
                    if write_back and is_write:
                        entry[1] = True
                    continue
                if not write_back and is_write:
                    continue  # L1 write miss: no allocation
                if len(entry_set) >= ways:
                    victim_line = min(entry_set, key=entry_set.__getitem__)
                    victim = entry_set.pop(victim_line)
                    evicted[p] = True
                    if write_back and victim[1]:
                        wb_line[p] = victim_line
                entry_set[line] = [int(rec[p]), write_back and is_write]

    # Advance every touched cache's counter past every stamp used.
    for cache_id in np.unique(cache_ids).tolist():
        caches[cache_id].sync_use_counter(int(bases[cache_id]) + n)
    return hit, evicted, wb_line


def _direct_warm(
    caches: Sequence,
    cache_ids: np.ndarray,
    lines: np.ndarray,
    writes: np.ndarray,
    set_ids: np.ndarray,
    write_back: bool,
    hit: np.ndarray,
    evicted: np.ndarray,
    wb_line: Optional[np.ndarray],
):
    """Sparse-stream fallback of :func:`_grouped_warm`: one per-op pass.

    Identical policy, outcomes, and ``base(cache) + 1 + p`` recency
    stamps — only the execution strategy differs (live dicts instead
    of staged arrays).  It needs no per-SM / per-slice sub-stream
    segmentation.
    """
    n = int(lines.size)
    bases = [c.use_counter for c in caches]
    ways = caches[0].ways
    tables = [c.line_tables for c in caches]
    cid_l = cache_ids.tolist()
    lines_l = lines.tolist()
    writes_l = writes.tolist()
    sid_l = set_ids.tolist()
    hit_pos: List[int] = []
    ev_pos: List[int] = []
    wb_pos: List[int] = []
    wb_victims: List[int] = []
    hit_append = hit_pos.append
    for p in range(n):
        c = cid_l[p]
        entry_set = tables[c][sid_l[p]]
        line = lines_l[p]
        entry = entry_set.get(line)
        if entry is not None:
            hit_append(p)
            entry[0] = bases[c] + 1 + p
            if write_back and writes_l[p]:
                entry[1] = True
            continue
        if not write_back and writes_l[p]:
            continue  # L1 write miss: no allocation
        if len(entry_set) >= ways:
            victim_line = min(entry_set, key=entry_set.__getitem__)
            victim = entry_set.pop(victim_line)
            ev_pos.append(p)
            if write_back and victim[1]:
                wb_pos.append(p)
                wb_victims.append(victim_line)
        entry_set[line] = [bases[c] + 1 + p, write_back and writes_l[p]]
    if hit_pos:
        hit[hit_pos] = True
    if ev_pos:
        evicted[ev_pos] = True
    if wb_pos:
        wb_line[wb_pos] = wb_victims
    for cache_id in set(cid_l):
        caches[cache_id].sync_use_counter(bases[cache_id] + n)
    return hit, evicted, wb_line


def _per_cache_stats(
    caches: Sequence,
    cache_ids: np.ndarray,
    writes: np.ndarray,
    hit: np.ndarray,
    evicted: np.ndarray,
    wb_line: Optional[np.ndarray],
) -> None:
    """Fold per-op outcomes into each cache's :class:`CacheStats`."""
    n_caches = len(caches)

    def counts(mask: np.ndarray) -> np.ndarray:
        return np.bincount(cache_ids[mask], minlength=n_caches)

    read_hits = counts(hit & ~writes)
    read_misses = counts(~hit & ~writes)
    write_hits = counts(hit & writes)
    write_misses = counts(~hit & writes)
    evictions = counts(evicted)
    writebacks = counts(wb_line >= 0) if wb_line is not None else None
    for cache_id, cache in enumerate(caches):
        stats = cache.stats
        stats.read_hits += int(read_hits[cache_id])
        stats.read_misses += int(read_misses[cache_id])
        stats.write_hits += int(write_hits[cache_id])
        stats.write_misses += int(write_misses[cache_id])
        stats.evictions += int(evictions[cache_id])
        if writebacks is not None:
            stats.writebacks += int(writebacks[cache_id])


def warm_through_vector(
    caches: Sequence,
    cache_ids: np.ndarray,
    lines: np.ndarray,
    writes: np.ndarray,
    set_ids: np.ndarray,
) -> np.ndarray:
    """Warm several same-geometry caches under the L1 policy.

    Write-through, no-write-allocate; read misses fill.  Returns the
    boolean forwarded mask (every write plus every read miss).
    Counter- and state-equivalent to a per-op pass over each cache's
    sub-stream in op order (see module docstring).
    """
    hit, evicted, _ = _grouped_warm(
        caches, cache_ids, lines, writes, set_ids, write_back=False
    )
    _per_cache_stats(caches, cache_ids, writes, hit, evicted, None)
    return writes | ~hit


def warm_back_vector(
    caches: Sequence,
    cache_ids: np.ndarray,
    lines: np.ndarray,
    writes: np.ndarray,
    set_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Warm several same-geometry caches under the LLC policy.

    Write-back, write-allocate; stores install dirty without a fetch.
    Returns ``(read_miss_mask, wb_line)`` where ``wb_line[p]`` is the
    dirty victim line evicted by op ``p`` (or -1): position-resolved
    writebacks, so the caller can emit them in per-slice op order.
    """
    hit, evicted, wb_line = _grouped_warm(
        caches, cache_ids, lines, writes, set_ids, write_back=True
    )
    _per_cache_stats(caches, cache_ids, writes, hit, evicted, wb_line)
    return (~hit & ~writes), wb_line


# ----------------------------------------------------------------------
# Whole-stream replay through the hierarchy
# ----------------------------------------------------------------------
def _noc_flits_for(system, n_forwarded: int, n_forwarded_writes: int) -> int:
    """Estimated NoC flits for forwarded replay traffic.

    Writes cost one data packet (write-through store); reads cost the
    request control packet plus the response data packet.
    """
    data_flits = system.config.data_packet_flits
    read_flits = system.config.noc_control_flits + data_flits
    return (
        n_forwarded_writes * data_flits
        + (n_forwarded - n_forwarded_writes) * read_flits
    )


def replay_ops(
    system, sm_ids, lines, channels, banks, rows, slice_ids, writes
) -> Tuple[int, int]:
    """Replay an ordered op stream through *system*'s hierarchy.

    L1 filtering (every SM in one grouped pass), then the surviving
    traffic through the LLC slices, then the resulting DRAM reads plus
    dirty-victim writebacks through the per-bank row-buffer state.
    The DRAM streams are sorted to (slice, op) order, so each channel
    sees its read fetches slice-major in op order within a slice, then
    its writebacks in the same order.  Returns ``(ops_replayed,
    estimated_noc_flits)``.
    """
    total_ops = len(lines)
    if not total_ops:
        return 0, 0
    sm_arr = np.asarray(sm_ids, dtype=np.int64)
    lines_u64 = np.asarray(lines, dtype=np.uint64)
    lines_i64 = lines_u64.astype(np.int64)
    writes_arr = np.asarray(writes, dtype=bool)
    l1_set_ids = system.sms[0].l1.set_indices_array(lines_u64)
    forwarded_mask = warm_through_vector(
        [sm.l1 for sm in system.sms], sm_arr, lines_i64, writes_arr,
        l1_set_ids,
    )
    forwarded = np.flatnonzero(forwarded_mask)
    if not forwarded.size:
        return total_ops, 0
    fwd_writes = writes_arr[forwarded]
    noc_flits = _noc_flits_for(system, forwarded.size, int(fwd_writes.sum()))

    slice_arr = np.asarray(slice_ids, dtype=np.int64)[forwarded]
    llc_set_ids = system.slices[0].cache.set_indices_array(
        lines_u64[forwarded]
    )
    read_miss_mask, wb_line = warm_back_vector(
        [s.cache for s in system.slices], slice_arr,
        lines_i64[forwarded], fwd_writes, llc_set_ids,
    )

    chan_arr = np.asarray(channels, dtype=np.int64)
    bank_arr = np.asarray(banks, dtype=np.int64)
    row_arr = np.asarray(rows, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    # Slice-major emission order, op order within a slice.
    miss_rel = np.flatnonzero(read_miss_mask)
    miss_rel = miss_rel[np.argsort(slice_arr[miss_rel], kind="stable")]
    if miss_rel.size:
        missed = forwarded[miss_rel]
        read_ch = chan_arr[missed]
        read_banks = bank_arr[missed]
        read_rows = row_arr[missed]
    else:
        read_ch = read_banks = read_rows = empty
    wb_rel = np.flatnonzero(wb_line >= 0)
    wb_rel = wb_rel[np.argsort(slice_arr[wb_rel], kind="stable")]
    if wb_rel.size:
        wb_ch, wb_banks, wb_rows = _decode_writebacks(
            system, wb_line[wb_rel].astype(np.uint64)
        )
    else:
        wb_ch = wb_banks = wb_rows = empty
    _replay_dram(
        system, read_ch, read_banks, read_rows, wb_ch, wb_banks, wb_rows
    )
    return total_ops, noc_flits


def _decode_writebacks(system, wb_lines_u64: np.ndarray):
    """DRAM coordinates of dirty victim lines (one decode for all)."""
    from ..core.mapper import decode_fields

    fields = decode_fields(system.address_map, wb_lines_u64)
    return (
        system._channels_of(fields).astype(np.int64),
        fields["bank"].astype(np.int64),
        fields["row"].astype(np.int64),
    )


def _replay_dram(
    system, read_ch, read_banks, read_rows, wb_ch, wb_banks, wb_rows
) -> None:
    """Replay decoded DRAM traffic per channel (reads then writebacks).

    Per-channel streams keep their arrival order: read fetches in
    slice-major order, then writebacks in slice-major order.
    """
    all_ch = np.concatenate([read_ch, wb_ch])
    if not all_ch.size:
        return
    n_channels = system.timing.channels
    all_banks = np.concatenate([read_banks, wb_banks])
    all_rows = np.concatenate([read_rows, wb_rows])
    reads_per = np.bincount(read_ch, minlength=n_channels)
    writes_per = np.bincount(wb_ch, minlength=n_channels)
    c_order = np.argsort(all_ch, kind="stable")
    sorted_ch = all_ch[c_order]
    bounds = [
        0,
        *(np.flatnonzero(np.diff(sorted_ch)) + 1).tolist(),
        sorted_ch.size,
    ]
    for start, end in zip(bounds, bounds[1:]):
        segment = c_order[start:end]
        channel = int(sorted_ch[start])
        system.dram.controllers[channel].replay_traffic(
            all_banks[segment], all_rows[segment],
            int(reads_per[channel]), int(writes_per[channel]),
        )


# ----------------------------------------------------------------------
# Kernel streams (the cacheable replay form)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelStream:
    """An estimated kernel's merged replay stream, scheme-independent.

    ``addresses`` are *raw* (pre-mapping) request addresses in replay
    order; ``tb_ordinals[i]`` is the issuing TB's 0-based index within
    the kernel.  Waves (``tb_ordinal // wave_cap``) are contiguous and
    non-decreasing; each wave is replayed as one call, preserving the
    per-wave DRAM grouping of the context-based replay.  ``n_tbs`` counts *every* TB
    of the kernel (including ones that contributed no ops) so the
    fast-forward SM cursor advances identically whether the stream was
    rebuilt or loaded from the state cache.
    """

    addresses: np.ndarray  # uint64, raw
    writes: np.ndarray  # bool
    tb_ordinals: np.ndarray  # int32
    n_tbs: int
    wave_cap: int

    @property
    def n_ops(self) -> int:
        return int(self.addresses.size)


def build_kernel_stream(kernel, wave_cap: int) -> KernelStream:
    """Merge a whole kernel's warp traces into one replay stream.

    Reproduces the context-based order exactly: TBs are taken in
    dispatch order one machine window (*wave_cap*) at a time, each
    wave's non-empty warp streams are interleaved round-robin (one op
    per warp per turn — the ``(position, stream)`` lexsort of
    :meth:`GPUSystem._replay_interleaved`).  Deterministic, and a pure
    function of the workload and *wave_cap* — nothing scheme- or
    state-dependent enters, which is what makes the stream cacheable
    across schemes and runs.
    """
    tbs = list(kernel.tbs)
    addr_parts: List[np.ndarray] = []
    write_parts: List[np.ndarray] = []
    tb_parts: List[np.ndarray] = []
    for start in range(0, len(tbs), wave_cap):
        streams = []  # (tb_ordinal, addresses, writes) per non-empty warp
        for offset, tb in enumerate(tbs[start:start + wave_cap]):
            for warp in tb.warps:
                if len(warp):
                    streams.append((
                        start + offset,
                        np.asarray(warp.addresses, dtype=np.uint64),
                        np.asarray(warp.writes, dtype=bool),
                    ))
        if not streams:
            continue
        lengths = [s[1].size for s in streams]
        ordinals = np.repeat(
            np.asarray([s[0] for s in streams], dtype=np.int32), lengths
        )
        addresses = np.concatenate([s[1] for s in streams])
        writes = np.concatenate([s[2] for s in streams])
        if len(streams) > 1:
            position = np.concatenate(
                [np.arange(n, dtype=np.int64) for n in lengths]
            )
            stream_index = np.repeat(
                np.arange(len(streams), dtype=np.int64), lengths
            )
            order = np.lexsort((stream_index, position))
            ordinals = ordinals[order]
            addresses = addresses[order]
            writes = writes[order]
        addr_parts.append(addresses)
        write_parts.append(writes)
        tb_parts.append(ordinals)
    if addr_parts:
        addresses = np.concatenate(addr_parts)
        writes = np.concatenate(write_parts)
        ordinals = np.concatenate(tb_parts)
    else:
        addresses = np.empty(0, dtype=np.uint64)
        writes = np.empty(0, dtype=bool)
        ordinals = np.empty(0, dtype=np.int32)
    return KernelStream(
        addresses=addresses,
        writes=writes,
        tb_ordinals=ordinals,
        n_tbs=len(tbs),
        wave_cap=int(wave_cap),
    )
