"""Unit tests for the prefetchers.

The next-line prefetcher's miss handling runs inlined in
``CacheHierarchy``, so its tests drive a hierarchy.
"""

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.prefetch import NextLinePrefetcher, StridePrefetcher


# ----------------------------------------------------------------------
# Next-line
# ----------------------------------------------------------------------

def hierarchy_with_next_line(window=64, min_accuracy=0.25):
    hierarchy = CacheHierarchy()
    hierarchy._next_line = NextLinePrefetcher(window, min_accuracy)
    return hierarchy


def miss(hierarchy, block):
    assert hierarchy.access(block << 6).hit_level != "l1"


def test_next_line_prefetches_block_plus_one():
    hierarchy = hierarchy_with_next_line()
    miss(hierarchy, 100)
    assert hierarchy.l2.contains(101)
    assert not hierarchy.l1.contains(101)
    assert hierarchy.access(101 << 6).hit_level == "l2"


def test_next_line_turns_off_when_useless():
    hierarchy = hierarchy_with_next_line(window=16, min_accuracy=0.5)
    # Misses all over the place; none of the prefetched blocks are used.
    block = 0
    for _ in range(200):
        block += 1000
        miss(hierarchy, block)
    assert not hierarchy._next_line.enabled
    miss(hierarchy, block + 1000)
    assert not hierarchy.l2.contains(block + 1001)


def test_next_line_stays_on_for_sequential_streams():
    hierarchy = hierarchy_with_next_line(window=16, min_accuracy=0.5)
    for block in range(200):  # each demand hits the previous prefetch
        miss(hierarchy, block)
    assert hierarchy._next_line.enabled


def test_next_line_reenables_after_cooloff():
    hierarchy = hierarchy_with_next_line(window=8, min_accuracy=0.9)
    block = 0
    for _ in range(200):
        if not hierarchy._next_line.enabled:
            break
        block += 999
        miss(hierarchy, block)
    assert not hierarchy._next_line.enabled
    for _ in range(8):  # one cool-off window of further misses
        block += 999
        miss(hierarchy, block)
    assert hierarchy._next_line.enabled
    miss(hierarchy, block + 999)
    assert hierarchy.l2.contains(block + 1000)


# ----------------------------------------------------------------------
# Stride
# ----------------------------------------------------------------------

def test_stride_needs_two_confirmations():
    prefetcher = StridePrefetcher(degree=2)
    assert prefetcher.on_access(10) == []
    assert prefetcher.on_access(12) == []       # stride learned, unconfirmed
    assert prefetcher.on_access(14) == [16, 18]  # confirmed


def test_stride_handles_negative_strides():
    prefetcher = StridePrefetcher(degree=1)
    prefetcher.on_access(100)
    prefetcher.on_access(98)
    assert prefetcher.on_access(96) == [94]


def test_stride_resets_on_stride_change():
    prefetcher = StridePrefetcher(degree=2)
    prefetcher.on_access(10)
    prefetcher.on_access(12)
    prefetcher.on_access(14)
    assert prefetcher.on_access(20) == []  # stride broke


def test_stride_tracks_regions_independently():
    prefetcher = StridePrefetcher(degree=1)
    region_a = 0
    region_b = 1 << 10  # different 4 KB region
    prefetcher.on_access(region_a + 0)
    prefetcher.on_access(region_b + 0)
    prefetcher.on_access(region_a + 2)
    prefetcher.on_access(region_b + 3)
    assert prefetcher.on_access(region_a + 4) == [region_a + 6]
    assert prefetcher.on_access(region_b + 6) == [region_b + 9]


def test_stride_table_eviction():
    prefetcher = StridePrefetcher(degree=1, table_entries=2)
    for region in range(8):
        prefetcher.on_access(region << 6)
    # Oldest regions evicted; re-touching one starts training over.
    assert prefetcher.on_access((0 << 6) + 1) == []


def test_stride_never_prefetches_negative_blocks():
    prefetcher = StridePrefetcher(degree=4)
    prefetcher.on_access(8)
    prefetcher.on_access(5)
    result = prefetcher.on_access(2)
    assert all(block >= 0 for block in result)


def test_stride_degree_validation():
    import pytest

    with pytest.raises(ValueError):
        StridePrefetcher(degree=0)
