"""The trace replay loop (``docs/performance.md``).

:func:`replay` is the simulator's one replay loop.  Each access runs

    TLB -> (page walk: PTB fetches through the caches, TMCC harvesting
    embedded CTEs) -> L1 probe -> ``CacheHierarchy.access_fast_miss``
    -> ``MemoryController.serve_l3_miss`` -> Figure 5 counts -> dirty
    writebacks

without building per-access records (``AccessResult``,
``ServiceTimeline``):

* the trace is preprocessed column-wise (vpn / TLB tag / global block /
  write columns, via numpy when available);
* a batched front end replays runs of TLB hits and, inside them,
  windows of L1 hits in bulk; every other access takes the per-access
  step, which holds the walk and the data tail once;
* every invariant attribute lookup is hoisted into a bound local, and
  cache-level latencies are precomputed per hit level.

Observers never choose a different loop; they choose how far the
batched front end may run:

* a span tracer, time-series recorder, fault injector or host profiler
  sees every access, so with one attached the batch widths are zero and
  every access takes the per-access step, which calls their hooks;
* a :class:`~repro.sim.supervisor.RunSupervisor` cuts batches at the
  indices where it may checkpoint or check its watchdog;
* event-bus subscribers, resilience and virtualization change nothing:
  their events and paths all hang off TLB misses and LLC misses, which
  take the per-access step anyway.
"""

from __future__ import annotations

from functools import reduce as _reduce
from itertools import compress as _compress
from operator import add as _add
from typing import Optional

from repro.cache.sa_cache import DIRTY
from repro.core.base import MemoryController, PATH_CTE_HIT
from repro.sim.columns import trace_columns
from repro.sim.tracing import CATEGORY_WALK
from repro.vm.nested import HOST_FETCH

#: Largest pre-classified chunk the batched front end will take at once.
_MAX_CHUNK = 512


def replay(sim, state, supervisor=None) -> Optional[str]:
    """Replay ``sim``'s trace from ``state`` to its end.

    Mutates the simulator (clock, run progress, sim counters, every
    component) and returns ``None``, or the supervisor's stop reason
    when its watchdog ends the run early.
    """
    trace = sim.workload.trace
    n = len(trace)
    config = sim.system
    compute_ns = config.cycles_to_ns(sim.workload.compute_cycles_per_access)
    mlp = config.mlp_stall_factor

    # Per-hit-level stall latencies, from the hierarchy's integer cycle
    # counts (index 3, memory, excludes the DRAM service time).
    lat = tuple(config.cycles_to_ns(cycles)
                for cycles in sim.hierarchy._level_cycles)

    huge_pages = sim.huge_pages
    virtualized = sim.virtualized
    vpns, tags, blocks, writes = trace_columns(trace, huge_pages)

    # Global-block column: ppn * 64 + block_index, or -1 for unmapped
    # vpns.  Translation is static while a run is in flight (same
    # invariant the walk-path memo below relies on), so the whole column
    # is precomputed once.
    if huge_pages or virtualized:
        translate = sim._translate_vpn
        memo = {v: translate(v) for v in set(vpns)}
    else:
        memo = sim._vpn_to_ppn
    memo_get = memo.get
    gblocks = [-1 if (p := memo_get(v)) is None else p * 64 + b
               for v, b in zip(vpns, blocks)]

    # Per-access observers: with any of them attached the batch widths
    # are zero, so every access takes the per-access step and its hooks.
    tracer = sim.tracer
    timeseries = sim.timeseries
    injector = sim._fault_injector
    profiler = sim.context.profiler
    stepping = not (tracer is None and timeseries is None
                    and injector is None and profiler is None)
    bus = sim.context.bus

    # Hoisted hot references.
    tlb = sim.tlb
    tlb_lru = tlb._lru
    tlb_slots = tlb_lru._slot
    tlb_move = tlb_lru.move_to_end
    tlb_insert = tlb_lru.insert_mru
    tlb_pop = tlb_lru.pop_lru
    tlb_entries = tlb.entries
    tlb_stats = tlb.stats
    controller = sim.controller
    serve_miss = sim._serve_miss
    serve_writeback = controller.serve_writeback
    hierarchy = sim.hierarchy
    access_fast = hierarchy.access_fast
    access_miss = hierarchy.access_fast_miss
    # The L1 probe of a data access is inlined below, batched and per
    # access; these are the ingredients of CacheHierarchy.access_fast's
    # L1-hit half.
    prefetch_on = hierarchy.config.enable_prefetch
    nl_outstanding = hierarchy._next_line._outstanding
    l1 = hierarchy.l1
    l1_index = l1._index
    l1_index_get = l1_index.get
    l1_orders = l1._orders
    l1_mask = l1.num_sets - 1
    l1_stats = l1.stats
    lat_l1 = lat[0]
    walker = sim.walker
    walks_counter = walker.walks
    ptb_fetches_counter = walker.ptb_fetches
    pwc_first = walker.pwc.first_fetch_level
    pwc_fill = walker.pwc.fill
    walk_path = sim.table.walk_path
    nested_walk = sim.nested_walker.walk if virtualized else None
    # vpn -> (level, ptb address, table, huge leaf, kind) fetches | None
    # for unmapped vpns.  The page table is static while a run is in
    # flight, so the native walk path (PageWalker.walk minus its dynamic
    # PWC interaction) memoizes; the PWC start level, its LRU/stat
    # updates, and the walker counters are still replayed per walk.
    walk_cache: dict = {}
    note_ptb = controller.note_ptb_fetch
    # Base-class note_ptb_fetch is a no-op and table.ptb_at is side-effect
    # free, so both calls are skipped for controllers that don't harvest
    # embedded CTEs (everything but TMCC): their fetches carry no table.
    do_note = (type(controller).note_ptb_fetch
               is not MemoryController.note_ptb_fetch)
    note_table = sim.table if do_note else None
    host_table = sim.host_table if do_note else None
    reset_stats = sim._reset_stats
    clock = sim.clock
    # Dirty L3 victims of the current fetch; empty between fetches.
    writebacks: list = []

    # Batched front end ingredients: membership predicates (all C-level),
    # the alternating (compute, stall * mlp) float increments of an
    # L1-hit access, and the adaptive widths (zero while stepping).
    tlb_has = tlb_slots.__contains__
    l1_has = l1_index.__contains__
    nl_has = nl_outstanding.__contains__
    from_keys = dict.fromkeys
    batch_pairs = (compute_ns, lat_l1 * mlp) * _MAX_CHUNK
    chunk = 0 if stepping else 64   # outer (TLB-hit) classification width
    lchunk = 8                      # inner (L1-hit) window width

    now = clock.now_ns
    index = state.index
    warmup_end = state.warmup_end
    # Accesses below ``tlb_stop`` had their TLB hit replayed in bulk; the
    # access at ``miss_at`` is a known TLB miss.
    tlb_stop = index
    miss_at = -1
    # The next index at which the supervisor acts; batches stop there.
    cut = n if supervisor is None else index
    stop_reason = None

    try:
        while index < n:
            if index == cut:
                clock.now_ns = now
                state.index = index
                stop_reason = supervisor.on_access(sim, state)
                if stop_reason is not None:
                    break
                cut = supervisor.next_check(index)
            if index == warmup_end:
                clock.now_ns = now
                reset_stats()
                state.measure_start_ns = now

            # -- batched front end ---------------------------------------
            # Two-level chunk pre-classification.  Outer: the TLB-hit
            # prefix of the next chunk (nothing ever invalidates TLB
            # entries mid-run, and hits never change TLB membership, so
            # the prefix stays valid however the accesses below unfold);
            # its lookups collapse to bulk stat sums plus one recency
            # move per distinct tag (last occurrence wins).  Inner:
            # within the TLB-hit run, all-(mapped ∧ L1 hit) windows batch
            # the same way; L1 *membership* only changes on a miss, so
            # each window is valid up to its first predicted miss, which
            # takes the per-access step.  Chunks never straddle the
            # warm-up boundary or a supervisor check.  Final state is
            # identical to replaying one access at a time: recency moves
            # collapse to each key's last occurrence, stats are bulk sums,
            # and the clock advances by the same alternating float adds
            # in the same order.
            if index >= tlb_stop and index != miss_at:
                end = index + chunk
                if index < warmup_end < end:
                    end = warmup_end
                if end > cut:
                    end = cut
                if end > n:
                    end = n
                span = end - index
                if span >= 2:
                    seg_tags = tags[index:end]
                    try:
                        tp = list(map(tlb_has, seg_tags)).index(False)
                    except ValueError:
                        tp = span
                    # Streak-adaptive outer width.
                    chunk = 2 * tp + 2
                    if chunk > _MAX_CHUNK:
                        chunk = _MAX_CHUNK
                    elif chunk < 16:
                        chunk = 16
                    tlb_stop = index + tp
                    miss_at = tlb_stop if tp != span else -1
                    if tp:
                        tlb_stats.total += tp
                        tlb_stats.hits += tp
                        for t in reversed(from_keys(
                                reversed(seg_tags[:tp] if tp != span
                                         else seg_tags))):
                            tlb_move(t)
            if index < tlb_stop:
                wend = index + lchunk
                if wend > tlb_stop:
                    wend = tlb_stop
                seg_blocks = gblocks[index:wend]
                try:
                    q = list(map(l1_has, seg_blocks)).index(False)
                except ValueError:
                    q = wend - index
                lchunk = 2 * q + 2
                if lchunk > 64:
                    lchunk = 64
                elif lchunk < 4:
                    lchunk = 4
                if q:
                    if q != len(seg_blocks):
                        seg_blocks = seg_blocks[:q]
                    l1_stats.total += q
                    l1_stats.hits += q
                    for b in reversed(from_keys(reversed(seg_blocks))):
                        order = l1_orders[b & l1_mask]
                        if order[-1] != b:
                            order.remove(b)
                            order.append(b)
                    if prefetch_on and nl_outstanding:
                        for b in filter(nl_has, seg_blocks):
                            nl_outstanding[b] = True
                    for b in _compress(seg_blocks, writes[index:index + q]):
                        l1_index[b] |= DIRTY
                    now = _reduce(_add, batch_pairs[:2 * q], now)
                    index += q
                if index == wend and index != miss_at:
                    continue
                # else: the access at ``index`` is a predicted L1 miss
                # or unmapped vpn, or the known TLB miss at ``miss_at``.

            # -- per-access step -----------------------------------------
            if stepping:
                if injector is not None:
                    injector.tick(index, now)
                now += compute_ns
                if tracer is not None:
                    tracer.begin_access(now, index=index,
                                        vaddr=trace[index][0],
                                        write=writes[index])
                if profiler is not None:
                    profiler.begin("sim.access")
            else:
                now += compute_ns
            stall = 0.0
            tlb_missed = False

            # TLB lookup + fill, unless the front end replayed the hit.
            if index >= tlb_stop:
                tag = tags[index]
                tlb_stats.total += 1
                if tag in tlb_slots:
                    tlb_stats.hits += 1
                    tlb_move(tag)
                else:
                    tlb_missed = True
                    sim._tlb_misses += 1
                    vpn = vpns[index]
                    if bus.active:
                        bus.publish("sim.tlb_miss", now, vpn=vpn)
                    if tracer is not None:
                        walk_span = tracer.begin(
                            "page_walk", CATEGORY_WALK, now, vpn=vpn,
                            nested=virtualized)
                    if virtualized:
                        # A 2D walk (Figure 12b): host and guest PTB
                        # fetches alike go through the caches and the
                        # controller; only host PTBs feed CTE harvesting
                        # (Section V-A3).
                        try:
                            fetches = [
                                (level, address,
                                 host_table if kind == HOST_FETCH else None,
                                 False, "ptb_" + kind)
                                for kind, level, address
                                in nested_walk(vpn).fetches]
                        except KeyError:
                            fetches = ()
                    else:
                        walks_counter.value += 1
                        if vpn in walk_cache:
                            cached = walk_cache[vpn]
                        else:
                            try:
                                table_path = walk_path(vpn)
                            except KeyError:
                                cached = walk_cache[vpn] = None
                            else:
                                huge = table_path[-1][0] == 2
                                cached = walk_cache[vpn] = tuple(
                                    (lvl, addr, note_table,
                                     huge and lvl == 2, "ptb")
                                    for lvl, addr, _ in table_path)
                        if cached is None:
                            fetches = ()
                        else:
                            start_level = pwc_first(vpn)
                            fetches = [fetch for fetch in cached
                                       if fetch[0] <= start_level]
                            ptb_fetches_counter.value += len(fetches)
                            pwc_fill(vpn)
                    for level, address, table, huge_leaf, kind in fetches:
                        hit_level = access_fast(address >> 6, False, True,
                                                writebacks)
                        stall += lat[hit_level]
                        if hit_level == 3:
                            latency, path, _ = serve_miss(
                                address >> 12, (address >> 6) & 63,
                                now + stall, False, kind, level)
                            stall += latency
                            if path != PATH_CTE_HIT:
                                sim._fig5_cte_misses += 1
                                sim._fig5_after_tlb += 1
                        if writebacks:
                            drain_at = now + stall
                            for victim in writebacks:
                                serve_writeback(victim >> 6, victim & 63,
                                                drain_at)
                            writebacks.clear()
                        if table is not None:
                            note_ptb(level, address, table.ptb_at(address),
                                     huge_leaf)
                    if tracer is not None:
                        tracer.end(walk_span, now + stall)
                    if tag in tlb_slots:
                        tlb_move(tag)
                    else:
                        if len(tlb_slots) >= tlb_entries:
                            tlb_pop()
                        tlb_insert(tag, 0)

            # The data tail (CacheHierarchy.access_fast, L1 probe inlined).
            block = gblocks[index]
            if block >= 0:
                is_write = writes[index]
                if prefetch_on and block in nl_outstanding:
                    nl_outstanding[block] = True
                flags = l1_index_get(block)
                l1_stats.total += 1
                if flags is not None:
                    l1_stats.hits += 1
                    order = l1_orders[block & l1_mask]
                    if order[-1] != block:
                        order.remove(block)
                        order.append(block)
                    if is_write:
                        l1_index[block] = flags | DIRTY
                    stall += lat_l1
                else:
                    hit_level = access_miss(block, is_write, False,
                                            writebacks)
                    stall += lat[hit_level]
                    if hit_level == 3:
                        sim._l3_data_misses += 1
                        latency, path, _ = serve_miss(
                            block >> 6, block & 63, now + stall, is_write,
                            "data", -1)
                        stall += latency
                        if path != PATH_CTE_HIT:
                            # Every non-hit path (ML2 included) was a real
                            # CTE-cache miss.
                            sim._fig5_cte_misses += 1
                            if tlb_missed:
                                sim._fig5_after_tlb += 1
                    if writebacks:
                        drain_at = now + stall
                        for victim in writebacks:
                            serve_writeback(victim >> 6, victim & 63,
                                            drain_at)
                        writebacks.clear()

            if stepping:
                if profiler is not None:
                    profiler.end()
                if tracer is not None:
                    tracer.end_access(now + stall)
                now += stall * mlp
                if timeseries is not None:
                    clock.now_ns = now
                    timeseries.maybe_sample(now)
            else:
                now += stall * mlp
            index += 1
    finally:
        # Flush loop-local state back onto the simulator, also on error.
        clock.now_ns = now
        state.index = index
    return stop_reason
