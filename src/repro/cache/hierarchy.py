"""The three-level cache hierarchy of Table III.

Structure: 64 KB L1 (data+instruction modeled as one), 256 KB inclusive L2,
8 MB exclusive L3, with L1/L2 next-line + stride prefetchers.  Latencies
are Table III's: L1 3 cycles, L2 +11, L3 +50.

The hierarchy serves *block* requests and reports whether DRAM must be
involved (``l3_miss``); the memory controller owns everything below.  Dirty
L3 victims surface as ``dram_writebacks`` so the controller can model write
traffic and compressed-page bookkeeping.

Storage is block-keyed (``sa_cache.SetAssociativeCache``): the access
path and fill helpers below move one packed ``flags`` int per line
between the levels' ``block -> flags`` dicts and per-set recency order
lists -- no :class:`CacheLine` objects move between levels.  The
replay loop and :meth:`CacheHierarchy.access` share this one access
path; its behaviour stays pinned by the ``--emit-json`` goldens, the
cascade by the hierarchy differential test against an oracle built
from the ``OrderedDict`` caches in ``tests/oracles.py``, and the
per-cache semantics by the single-cache differential tests against the
same oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cache.prefetch import NextLinePrefetcher, StridePrefetcher
from repro.cache.sa_cache import (
    COMPRESSED, DIRTY, KEEP_ON_REFRESH, PTB, CacheLine, SetAssociativeCache)
from repro.common.units import KIB, MIB


@dataclass(frozen=True)
class HierarchyConfig:
    """Sizes/latencies per Table III."""

    l1_size: int = 64 * KIB
    l1_assoc: int = 8
    l2_size: int = 256 * KIB
    l2_assoc: int = 8
    l3_size: int = 8 * MIB
    l3_assoc: int = 16
    l1_latency: int = 3
    l2_latency: int = 11  # additional cycles
    l3_latency: int = 50  # additional cycles
    enable_prefetch: bool = True
    l1_stride_degree: int = 2
    l2_stride_degree: int = 4


#: :meth:`CacheHierarchy.access_fast` hit levels, by name.
_HIT_LEVEL_NAMES = ("l1", "l2", "l3", "memory")

#: Flag bits a line keeps when it moves up a level; dirtiness is the
#: requester's (a write) at L1 and the line's own below.
_CARRIED = COMPRESSED | PTB


@dataclass(slots=True)
class AccessResult:
    """What one block access did."""

    hit_level: str  # "l1" | "l2" | "l3" | "memory"
    latency_cycles: int
    l3_miss: bool
    dram_writebacks: List[int] = field(default_factory=list)


class CacheHierarchy:
    """L1 + inclusive L2 + exclusive L3 with prefetch.

    ``shared_l3`` lets several per-core hierarchies sit in front of one
    LLC, the Table III multi-core organization (private L1/L2 per core,
    one shared exclusive L3).
    """

    def __init__(self, config: HierarchyConfig = HierarchyConfig(),
                 shared_l3: Optional[SetAssociativeCache] = None) -> None:
        self.config = config
        self.l1 = SetAssociativeCache(config.l1_size, config.l1_assoc, "l1")
        self.l2 = SetAssociativeCache(config.l2_size, config.l2_assoc, "l2")
        self.l3 = shared_l3 if shared_l3 is not None else SetAssociativeCache(
            config.l3_size, config.l3_assoc, "l3")
        self._next_line = NextLinePrefetcher()
        self._stride_l1 = StridePrefetcher(degree=config.l1_stride_degree)
        self._stride_l2 = StridePrefetcher(degree=config.l2_stride_degree)
        #: ``config.enable_prefetch`` is fixed at construction; the access
        #: path reads this attribute to skip the dataclass field load.
        self._prefetch_on = config.enable_prefetch
        #: Load-to-use cycles per :meth:`access_fast` hit level.
        l2_cycles = config.l1_latency + config.l2_latency
        self._level_cycles = (config.l1_latency, l2_cycles,
                              l2_cycles + config.l3_latency,
                              l2_cycles + config.l3_latency)

    # ------------------------------------------------------------------
    # Main access path
    # ------------------------------------------------------------------

    def access(self, address: int, is_write: bool = False,
               is_ptb: bool = False) -> AccessResult:
        """Serve one demand access; returns where it hit and at what cost."""
        writebacks: List[int] = []
        level = self.access_fast(address >> 6, is_write, is_ptb, writebacks)
        return AccessResult(_HIT_LEVEL_NAMES[level], self._level_cycles[level],
                            level == 3, writebacks)

    def access_fast(self, block: int, is_write: bool, is_ptb: bool,
                    writebacks: List[int]) -> int:
        """Serve one demand access to ``block``; returns the hit level.

        0=L1, 1=L2, 2=L3, 3=memory (the caller adds the DRAM latency;
        the fills are already done).  Dirty L3 victims are appended to
        the caller-owned ``writebacks`` list.  The replay loop inlines
        its L1-hit half and calls :meth:`access_fast_miss` directly, to
        skip the :class:`AccessResult` of :meth:`access`.
        """
        if self._prefetch_on:
            outstanding = self._next_line._outstanding
            if block in outstanding:
                outstanding[block] = True

        l1 = self.l1
        index = l1._index
        flags = index.get(block)
        stats = l1.stats
        stats.total += 1
        if flags is not None:
            stats.hits += 1
            order = l1._orders[block & (l1.num_sets - 1)]
            if order[-1] != block:
                order.remove(block)
                order.append(block)
            if is_write:
                index[block] = flags | DIRTY
            return 0
        return self.access_fast_miss(block, is_write, is_ptb, writebacks)

    def access_fast_miss(self, block: int, is_write: bool, is_ptb: bool,
                         writebacks: List[int]) -> int:
        """L1-miss continuation of :meth:`access_fast`.

        Split out so the replay loop can inline the (hot, trivial)
        next-line training + L1 probe and only pay a call on a miss.
        """
        if self._prefetch_on:
            # The L1 prefetch candidates are the next line, then the L1
            # stride table's; issuing the next line before training the
            # stride table is equivalent because prefetchers never read
            # cache contents.  The next-line prefetcher's miss handling
            # and the single-block issue are inlined (retire may flip
            # ``_enabled``, so it runs first).
            nl = self._next_line
            outstanding = nl._outstanding
            if len(outstanding) > nl.window:
                nl._retire_oldest_if_full()
            if nl._enabled:
                target = block + 1
                outstanding[target] = False
                if (target not in self.l1._index
                        and target not in self.l2._index):
                    self._fill_l2(target, self._take_from_l3(target),
                                  writebacks)
            else:
                nl._cooloff += 1
                if nl._cooloff >= nl.window:
                    nl._enabled = True
                    nl._cooloff = 0
                    nl._recent_results.clear()
            candidates = self._stride_l1.on_access(block)
            if candidates:
                self._issue_prefetches(candidates, writebacks)

        write_flag = DIRTY if is_write else 0
        l2 = self.l2
        flags = l2._index.get(block)
        stats = l2.stats
        stats.total += 1
        if flags is not None:
            stats.hits += 1
            order = l2._orders[block & (l2.num_sets - 1)]
            if order[-1] != block:
                order.remove(block)
                order.append(block)
            self._fill_l1(block, (flags & _CARRIED) | write_flag, writebacks)
            return 1

        if self._prefetch_on:
            candidates = self._stride_l2.on_access(block)
            if candidates:
                self._issue_prefetches(candidates, writebacks)

        l3 = self.l3
        flags = l3._index.pop(block, None)
        stats = l3.stats
        stats.total += 1
        if flags is not None:
            stats.hits += 1
            # Exclusive hand-off: lookup-then-invalidate collapses to one
            # removal, since the lookup's recency bump is dead state on a
            # leaving line.
            l3._orders[block & (l3.num_sets - 1)].remove(block)
            self._fill_l2(block, flags, writebacks)
            self._fill_l1(block, (flags & _CARRIED) | write_flag, writebacks)
            return 2

        flags = PTB if is_ptb else 0
        self._fill_l2(block, flags, writebacks)
        self._fill_l1(block, flags | write_flag, writebacks)
        return 3

    # ------------------------------------------------------------------
    # Fill helpers (inclusive L2, exclusive L3)
    # ------------------------------------------------------------------

    # The fill helpers write the block-keyed state directly: they sit
    # under every L1 miss of the replay loop, and both the object graph
    # and the call layers of the original per-line implementation
    # dominated the hierarchy's profile.  ``flags`` is the incoming
    # line's packed metadata; a refresh in place keeps the resident
    # line's dirty and PTB bits and takes the incoming compressed bit.
    # Any change to the fill semantics must be mirrored in the
    # ``OrderedDict`` oracle (``tests/oracles.py``).

    def _fill_l1(self, block: int, flags: int, writebacks: List[int]) -> None:
        l1 = self.l1
        index = l1._index
        order = l1._orders[block & (l1.num_sets - 1)]
        old = index.get(block)
        if old is not None:  # refresh in place
            if order[-1] != block:
                order.remove(block)
                order.append(block)
            index[block] = (old & KEEP_ON_REFRESH) | flags
            return
        if len(order) >= l1.associativity:
            victim = order.pop(0)
            victim_flags = index.pop(victim)
            if victim_flags & DIRTY:
                # Inclusive L2 holds the line; merge the dirty data down.
                l2_index = self.l2._index
                l2_flags = l2_index.get(victim)
                if l2_flags is not None:
                    l2_index[victim] = l2_flags | DIRTY
                else:
                    # L2 already evicted it (rare ordering); send to L3.
                    self._victim_to_l3(victim, victim_flags, writebacks)
        index[block] = flags
        order.append(block)

    def _fill_l2(self, block: int, flags: int, writebacks: List[int]) -> None:
        l2 = self.l2
        index = l2._index
        order = l2._orders[block & (l2.num_sets - 1)]
        old = index.get(block)
        if old is not None:  # refresh in place
            if order[-1] != block:
                order.remove(block)
                order.append(block)
            index[block] = (old & KEEP_ON_REFRESH) | flags
            return
        if len(order) >= l2.associativity:
            victim = order.pop(0)
            victim_flags = index.pop(victim)
            # Inclusive: purge the L1 copy; its dirtiness rides along.
            l1 = self.l1
            l1_flags = l1._index.pop(victim, None)
            if l1_flags is not None:
                l1._orders[victim & (l1.num_sets - 1)].remove(victim)
                victim_flags |= l1_flags & DIRTY
            self._victim_to_l3(victim, victim_flags, writebacks)
        index[block] = flags
        order.append(block)

    def _victim_to_l3(self, block: int, flags: int,
                      writebacks: List[int]) -> None:
        l3 = self.l3
        index = l3._index
        order = l3._orders[block & (l3.num_sets - 1)]
        old = index.get(block)
        if old is not None:  # refresh in place
            if order[-1] != block:
                order.remove(block)
                order.append(block)
            index[block] = (old & KEEP_ON_REFRESH) | flags
            return
        if len(order) >= l3.associativity:
            victim = order.pop(0)
            if index.pop(victim) & DIRTY:
                writebacks.append(victim)
        index[block] = flags
        order.append(block)

    def _take_from_l3(self, block: int) -> int:
        """Remove ``block`` from the exclusive L3 for a move up; returns
        its flags (0 when it was not resident)."""
        l3 = self.l3
        flags = l3._index.pop(block, None)
        if flags is None:
            return 0
        l3._orders[block & (l3.num_sets - 1)].remove(block)
        return flags

    # ------------------------------------------------------------------
    # Prefetch
    # ------------------------------------------------------------------

    def _issue_prefetches(self, blocks: List[int], writebacks: List[int]) -> None:
        """Install prefetched blocks into L2 (no latency is charged)."""
        l1_index = self.l1._index
        l2_index = self.l2._index
        for block in blocks:
            if block not in l1_index and block not in l2_index:
                self._fill_l2(block, self._take_from_l3(block), writebacks)

    # ------------------------------------------------------------------
    # Introspection for the compression controllers
    # ------------------------------------------------------------------

    def resident_line(self, address: int) -> Optional[CacheLine]:
        """The L1/L2/L3 line holding ``address``, if any (no side effects)."""
        block = address >> 6
        return self.l1.peek(block) or self.l2.peek(block) or self.l3.peek(block)

    def mark_compressed(self, address: int, compressed: bool = True) -> None:
        """Set the compressed-PTB data bit on whichever copies exist."""
        block = address >> 6
        for cache in (self.l1, self.l2, self.l3):
            index = cache._index
            flags = index.get(block)
            if flags is not None:
                index[block] = ((flags | COMPRESSED) if compressed
                                else (flags & ~COMPRESSED))

    def invalidate_everywhere(self, address: int) -> None:
        block = address >> 6
        for cache in (self.l1, self.l2, self.l3):
            cache.invalidate(block)
