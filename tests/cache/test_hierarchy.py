"""Tests for the three-level hierarchy semantics."""

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.common.units import KIB
from tests.oracles import access


def tiny_hierarchy(prefetch=False):
    """Small caches so eviction paths are easy to exercise."""
    return CacheHierarchy(HierarchyConfig(
        l1_size=2 * KIB, l1_assoc=2,
        l2_size=4 * KIB, l2_assoc=2,
        l3_size=16 * KIB, l3_assoc=4,
        enable_prefetch=prefetch,
    ))


def addr(block):
    return block << 6


def test_cold_miss_then_l1_hit():
    h = tiny_hierarchy()
    first = access(h, addr(1))
    assert first.hit_level == "memory"
    assert first.l3_miss
    assert first.latency_cycles == 3 + 11 + 50
    second = access(h, addr(1))
    assert second.hit_level == "l1"
    assert second.latency_cycles == 3


def test_l2_hit_after_l1_eviction():
    h = tiny_hierarchy()
    access(h, addr(0))
    # Fill enough same-set blocks to push block 0 out of L1 but not L2.
    sets_l1 = h.l1.num_sets
    access(h, addr(sets_l1))
    access(h, addr(2 * sets_l1))
    result = access(h, addr(0))
    assert result.hit_level in ("l2", "l3")
    assert result.latency_cycles >= 14


def test_exclusive_l3_hit_moves_block_up():
    h = tiny_hierarchy()
    access(h, addr(0))
    # Push block 0 all the way into L3 by thrashing L1+L2 set 0.
    stride = h.l2.num_sets
    for i in range(1, 8):
        access(h, addr(i * stride))
    assert h.l3.contains(0), "victim should have landed in L3"
    result = access(h, addr(0))
    assert result.hit_level == "l3"
    assert not h.l3.contains(0), "exclusive L3 must hand the block up"
    assert h.l1.contains(0)


def test_memory_fill_bypasses_l3():
    h = tiny_hierarchy()
    access(h, addr(42))
    assert h.l1.contains(42)
    assert h.l2.contains(42)
    assert not h.l3.contains(42)  # exclusive: fills go to L2/L1 only


def test_inclusive_l2_back_invalidates_l1():
    h = tiny_hierarchy()
    access(h, addr(0))
    stride = h.l2.num_sets
    # Evict block 0 from L2; its L1 copy must disappear too.
    access(h, addr(stride))
    access(h, addr(2 * stride))
    assert not h.l2.contains(0)
    assert not h.l1.contains(0)


def test_dirty_writeback_reaches_dram():
    h = tiny_hierarchy()
    access(h, addr(0), is_write=True)
    stride = h.l2.num_sets
    writebacks = []
    # Thrash through L2 and L3 set 0 until block 0's dirty line leaves L3.
    for i in range(1, 32):
        result = access(h, addr(i * stride))
        writebacks += result.dram_writebacks
    assert 0 in writebacks


def test_clean_evictions_do_not_write_back():
    h = tiny_hierarchy()
    stride = h.l2.num_sets
    writebacks = []
    for i in range(32):
        result = access(h, addr(i * stride))
        writebacks += result.dram_writebacks
    assert writebacks == []


def test_ptb_flag_propagates():
    h = tiny_hierarchy()
    access(h, addr(7), is_ptb=True)
    assert h.l1.peek(7).is_ptb
    assert h.l2.peek(7).is_ptb


def test_mark_compressed_and_served_flag():
    h = tiny_hierarchy()
    access(h, addr(3), is_ptb=True)
    h.mark_compressed(addr(3))
    # Evict from L1 only, then re-access: served from L2 with the flag.
    sets_l1 = h.l1.num_sets
    access(h, addr(3 + sets_l1))
    access(h, addr(3 + 2 * sets_l1))
    result = access(h, addr(3))
    assert result.hit_level in ("l2", "l3")
    # The flag travels up with the served line.
    assert h.l1.peek(3).compressed


def test_resident_line_and_invalidate_everywhere():
    h = tiny_hierarchy()
    access(h, addr(9))
    assert h.resident_line(addr(9)) is not None
    h.invalidate_everywhere(addr(9))
    assert h.resident_line(addr(9)) is None


def test_prefetch_brings_next_line_into_l2():
    h = tiny_hierarchy(prefetch=True)
    access(h, addr(100))
    assert h.l2.contains(101), "next-line prefetch should fill block+1"


def test_stride_prefetch_runs_ahead():
    h = tiny_hierarchy(prefetch=True)
    # Three accesses with stride 2 inside one region train the prefetcher.
    access(h, addr(200))
    access(h, addr(202))
    access(h, addr(204))
    assert h.l2.contains(206) or h.l1.contains(206)


def test_prefetch_disabled_config():
    h = tiny_hierarchy(prefetch=False)
    access(h, addr(100))
    assert not h.l2.contains(101)
