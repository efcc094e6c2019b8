"""Differential tests: the block-keyed hierarchy vs the object oracle.

`CacheHierarchy` moves packed flag ints between block-keyed caches and
inlines its prefetchers; `ReferenceCacheHierarchy` (`tests/oracles.py`)
is the original cascade passing `CacheLine` objects between
`OrderedDict` caches.  Hypothesis drives both through identical random
access sequences, with prefetch on and off, and demands after every
step the same hit level, the same DRAM writebacks, and the same
resident `(block, dirty, compressed, is_ptb)` lines at every level.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.prefetch import NextLinePrefetcher
from tests.oracles import (
    ReferenceCacheHierarchy, ReferenceNextLinePrefetcher, access)


# L1 4 sets x 2 ways, L2 8 x 2, L3 8 x 4: ~100 blocks keep every level
# evicting, so the inclusive-L2 and exclusive-L3 hand-offs run constantly.
def config(prefetch):
    return HierarchyConfig(l1_size=512, l1_assoc=2, l2_size=1024, l2_assoc=2,
                           l3_size=2048, l3_assoc=4, enable_prefetch=prefetch)


# A short prefetcher window so the next-line turn-off and cool-off run
# within one example.
WINDOW, MIN_ACCURACY = 8, 0.5

blocks = st.integers(min_value=0, max_value=100)

operation = st.one_of(
    st.tuples(st.just("access"), blocks, st.booleans(), st.booleans()),
    # A strided run of accesses, to train the stride prefetchers.
    st.tuples(st.just("stream"), blocks, st.integers(-3, 3),
              st.integers(2, 6), st.booleans()),
    st.tuples(st.just("mark_compressed"), blocks, st.booleans()),
    st.tuples(st.just("invalidate_everywhere"), blocks),
)


def pair(prefetch):
    dut = CacheHierarchy(config(prefetch))
    dut._next_line = NextLinePrefetcher(WINDOW, MIN_ACCURACY)
    oracle = ReferenceCacheHierarchy(
        config(prefetch), ReferenceNextLinePrefetcher(WINDOW, MIN_ACCURACY))
    return dut, oracle


def accesses(op):
    if op[0] == "access":
        return [(op[1], op[2], op[3])]
    _, start, stride, count, is_write = op
    return [(block, is_write, False)
            for block in range(start, start + stride * count, stride or 1)
            if block >= 0]


def resident(cache):
    return sorted((line.block, line.dirty, line.compressed, line.is_ptb)
                  for line in map(cache.peek, list(cache.blocks())))


def assert_same_state(dut, oracle):
    for level in ("l1", "l2", "l3"):
        mine, theirs = getattr(dut, level), getattr(oracle, level)
        assert resident(mine) == resident(theirs), level
        assert (mine.stats.total, mine.stats.hits) == (
            theirs.stats.total, theirs.stats.hits), level
    assert dut._next_line.enabled == oracle.next_line.enabled


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.lists(operation, max_size=120))
def test_hierarchy_matches_reference(prefetch, ops):
    dut, oracle = pair(prefetch)
    for op in ops:
        if op[0] in ("access", "stream"):
            for block, is_write, is_ptb in accesses(op):
                result = access(dut, block << 6, is_write, is_ptb)
                level, writebacks = oracle.access(block << 6, is_write, is_ptb)
                assert result.hit_level == level, op
                assert result.dram_writebacks == writebacks, op
        elif op[0] == "mark_compressed":
            dut.mark_compressed(op[1] << 6, op[2])
            oracle.mark_compressed(op[1] << 6, op[2])
        else:
            dut.invalidate_everywhere(op[1] << 6)
            oracle.invalidate_everywhere(op[1] << 6)
        assert_same_state(dut, oracle)
