"""Scalar reference for the functional replay plane (test-only).

The per-op dict loops the vectorized replay engine in
:mod:`repro.sim.replay` must reproduce.  Nothing in ``src/`` calls
them; ``test_replay_equiv.py`` compares the production engine against
them.  Each SM's L1 sees its own sub-stream in op order, surviving
traffic is grouped per LLC slice, and the resulting DRAM reads plus
dirty-victim writebacks are replayed through each bank's row-buffer
state one access at a time.

The loops use the caches' public state (``line_tables``, ``ways``,
``use_counter``) and advance the LRU tick by one per touch, the
original per-bump counter.  The vector engine stamps stream positions
instead; only the relative recency order within a set is observable,
and that must match.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.sim.replay import _decode_writebacks, _noc_flits_for


def warm_through_many(
    cache, lines: Sequence[int], writes: Sequence[bool], set_ids: Sequence[int]
) -> List[int]:
    """Replay aligned *lines* under the L1 policy (write-through,
    no-write-allocate; read misses fill).

    Returns the positions forwarded downstream: every write plus every
    read miss.  Victims are never dirty under this policy.
    """
    forwarded: List[int] = []
    sets = cache.line_tables
    ways = cache.ways
    use = cache.use_counter
    stats = cache.stats
    for position, line in enumerate(lines):
        entry_set = sets[set_ids[position]]
        entry = entry_set.get(line)
        if writes[position]:
            if entry is not None:
                use += 1
                entry[0] = use
                stats.write_hits += 1
            else:
                stats.write_misses += 1
            forwarded.append(position)
            continue
        if entry is not None:
            use += 1
            entry[0] = use
            stats.read_hits += 1
            continue
        stats.read_misses += 1
        use += 1
        if len(entry_set) >= ways:
            victim_line = min(entry_set, key=entry_set.__getitem__)
            entry_set.pop(victim_line)
            stats.evictions += 1
        entry_set[line] = [use, False]
        forwarded.append(position)
    cache.sync_use_counter(use)
    return forwarded


def warm_back_many(
    cache, lines: Sequence[int], writes: Sequence[bool], set_ids: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Replay aligned *lines* under the LLC policy (write-back,
    write-allocate; full-line stores install dirty without a fetch).

    Returns ``(read_miss_positions, writeback_lines)``.
    """
    read_miss_positions: List[int] = []
    writebacks: List[int] = []
    sets = cache.line_tables
    ways = cache.ways
    use = cache.use_counter
    stats = cache.stats
    for position, line in enumerate(lines):
        entry_set = sets[set_ids[position]]
        entry = entry_set.get(line)
        is_write = writes[position]
        if entry is not None:
            use += 1
            entry[0] = use
            if is_write:
                entry[1] = True
                stats.write_hits += 1
            else:
                stats.read_hits += 1
            continue
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
            read_miss_positions.append(position)
        use += 1
        if len(entry_set) >= ways:
            victim_line = min(entry_set, key=entry_set.__getitem__)
            victim = entry_set.pop(victim_line)
            stats.evictions += 1
            if victim[1]:
                stats.writebacks += 1
                writebacks.append(victim_line)
        entry_set[line] = [use, bool(is_write)]
    cache.sync_use_counter(use)
    return read_miss_positions, writebacks


def replay_rows(bank, rows) -> None:
    """Classify each access of *rows* against the evolving open row."""
    for row in rows:
        row = int(row)
        if bank.open_row is None:
            bank.row_misses += 1
            bank.activates += 1
        elif bank.open_row == row:
            bank.row_hits += 1
        else:
            bank.row_conflicts += 1
            bank.activates += 1
            bank.precharges += 1
        bank.open_row = row


def replay_traffic(controller, banks, rows, n_reads: int, n_writes: int) -> None:
    """Replay one channel's decoded traffic bank by bank, order kept."""
    banks = np.asarray(banks)
    rows = np.asarray(rows)
    for bank_id in sorted(set(banks.tolist())):
        replay_rows(controller.banks[bank_id], rows[banks == bank_id])
    controller.reads += n_reads
    controller.writes += n_writes
    controller.requests_seen += n_reads + n_writes
    controller.busy_cycles += (n_reads + n_writes) * controller._timing.t_burst


def _replay_dram(system, read_ch, read_banks, read_rows, wb_ch, wb_banks,
                 wb_rows) -> None:
    """Per channel: read fetches, then writebacks, each slice-major."""
    all_ch = np.concatenate([read_ch, wb_ch])
    all_banks = np.concatenate([read_banks, wb_banks])
    all_rows = np.concatenate([read_rows, wb_rows])
    for channel in sorted(set(all_ch.tolist())):
        mask = all_ch == channel
        replay_traffic(
            system.dram.controllers[channel], all_banks[mask], all_rows[mask],
            int(np.count_nonzero(read_ch == channel)),
            int(np.count_nonzero(wb_ch == channel)),
        )


def replay_ops(
    system, sm_ids, lines, channels, banks, rows, slice_ids, writes
) -> Tuple[int, int]:
    """Drop-in reference for :func:`repro.sim.replay.replay_ops`."""
    total_ops = len(lines)
    if not total_ops:
        return 0, 0
    sm_arr = np.asarray(sm_ids, dtype=np.int64)
    lines_arr = np.asarray(lines, dtype=np.uint64)
    writes_arr = np.asarray(writes, dtype=bool)
    l1_set_ids = system.sms[0].l1.set_indices_array(lines_arr)
    keep = np.zeros(total_ops, dtype=bool)
    for sm_id in sorted(set(sm_arr.tolist())):
        positions = np.flatnonzero(sm_arr == sm_id)
        kept = warm_through_many(
            system.sms[sm_id].l1,
            lines_arr[positions].tolist(),
            writes_arr[positions].tolist(),
            l1_set_ids[positions].tolist(),
        )
        keep[positions[np.asarray(kept, dtype=np.int64)]] = True
    forwarded = np.flatnonzero(keep)
    if not forwarded.size:
        return total_ops, 0
    noc_flits = _noc_flits_for(
        system, forwarded.size, int(writes_arr[forwarded].sum())
    )
    slice_arr = np.asarray(slice_ids, dtype=np.int64)[forwarded]
    llc_set_ids = system.slices[0].cache.set_indices_array(
        lines_arr[forwarded]
    )
    chan_arr = np.asarray(channels, dtype=np.int64)
    bank_arr = np.asarray(banks, dtype=np.int64)
    row_arr = np.asarray(rows, dtype=np.int64)
    missed_parts: List[np.ndarray] = []
    victims: List[int] = []
    for slice_id in sorted(set(slice_arr.tolist())):
        relative = np.flatnonzero(slice_arr == slice_id)
        positions = forwarded[relative]
        miss_positions, slice_victims = warm_back_many(
            system.slices[slice_id].cache,
            lines_arr[positions].tolist(),
            writes_arr[positions].tolist(),
            llc_set_ids[relative].tolist(),
        )
        missed_parts.append(positions[np.asarray(miss_positions, dtype=np.int64)])
        victims.extend(slice_victims)
    missed = np.concatenate(missed_parts)
    empty = np.empty(0, dtype=np.int64)
    if victims:
        wb_ch, wb_banks, wb_rows = _decode_writebacks(
            system, np.asarray(victims, dtype=np.uint64)
        )
    else:
        wb_ch = wb_banks = wb_rows = empty
    _replay_dram(
        system, chan_arr[missed], bank_arr[missed], row_arr[missed],
        wb_ch, wb_banks, wb_rows,
    )
    return total_ops, noc_flits
