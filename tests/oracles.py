"""Reference implementations kept as differential-test oracles.

The production caches are columnar (flat arrays, ``IntLRU``); these are
the original per-entry ``OrderedDict`` implementations they replaced,
kept verbatim as the readable spec.  The differential property tests
(``tests/cache/test_columnar_differential.py``,
``tests/vm/test_tlb_differential.py``,
``tests/mc/test_ctecache_differential.py``) drive random operation
sequences through both and require identical hits, victims, and stats.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional

from repro.cache.sa_cache import CacheLine
from repro.common.stats import RatioStat
from repro.common.units import BLOCK_SIZE, KIB


class ReferenceSetAssociativeCache:
    """The original per-entry-object implementation (the readable spec).

    Kept verbatim for differential testing: random operation sequences
    against this oracle and :class:`SetAssociativeCache` must produce
    identical hits, victims, and stats.
    """

    def __init__(self, size_bytes: int, associativity: int, name: str = "cache") -> None:
        if size_bytes % (BLOCK_SIZE * associativity):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"{BLOCK_SIZE} x associativity {associativity}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.num_sets = size_bytes // (BLOCK_SIZE * associativity)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: number of sets must be a power of two")
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = RatioStat(name)

    def _set_of(self, block: int) -> "OrderedDict[int, CacheLine]":
        return self._sets[block & (self.num_sets - 1)]

    def lookup(self, block: int, is_write: bool = False) -> Optional[CacheLine]:
        entries = self._set_of(block)
        line = entries.get(block)
        self.stats.record(line is not None)
        if line is not None:
            entries.move_to_end(block)
            if is_write:
                line.dirty = True
        return line

    def peek(self, block: int) -> Optional[CacheLine]:
        return self._set_of(block).get(block)

    def contains(self, block: int) -> bool:
        return block in self._set_of(block)

    def fill(self, block: int, dirty: bool = False, compressed: bool = False,
             is_ptb: bool = False) -> Optional[CacheLine]:
        entries = self._set_of(block)
        if block in entries:
            line = entries[block]
            entries.move_to_end(block)
            line.dirty = line.dirty or dirty
            line.compressed = compressed
            line.is_ptb = line.is_ptb or is_ptb
            return None
        victim: Optional[CacheLine] = None
        if len(entries) >= self.associativity:
            _, victim = entries.popitem(last=False)
        entries[block] = CacheLine(block, dirty=dirty, compressed=compressed,
                                   is_ptb=is_ptb)
        return victim

    def invalidate(self, block: int) -> Optional[CacheLine]:
        return self._set_of(block).pop(block, None)

    def flush(self) -> List[CacheLine]:
        dirty: List[CacheLine] = []
        for entries in self._sets:
            dirty.extend(line for line in entries.values() if line.dirty)
            entries.clear()
        return dirty

    @property
    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def blocks(self) -> Iterator[int]:
        for entries in self._sets:
            yield from entries


class ReferenceTLB:
    """The original ``OrderedDict`` TLB (spec + differential oracle)."""

    def __init__(self, entries: int = 2048, name: str = "tlb") -> None:
        if entries <= 0:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._lru: "OrderedDict[int, int]" = OrderedDict()
        self.stats = RatioStat(name)

    def lookup(self, tag: int) -> bool:
        hit = tag in self._lru
        self.stats.record(hit)
        if hit:
            self._lru.move_to_end(tag)
        return hit

    def contains(self, tag: int) -> bool:
        return tag in self._lru

    def fill(self, tag: int, ppn: int = 0) -> None:
        if tag in self._lru:
            self._lru.move_to_end(tag)
            self._lru[tag] = ppn
            return
        if len(self._lru) >= self.entries:
            self._lru.popitem(last=False)
        self._lru[tag] = ppn

    def invalidate(self, tag: int) -> None:
        self._lru.pop(tag, None)

    def flush(self) -> None:
        self._lru.clear()

    @property
    def occupancy(self) -> int:
        return len(self._lru)


class ReferenceCTECache:
    """The original ``OrderedDict`` CTE cache (spec + oracle)."""

    def __init__(self, size_bytes: int = 64 * KIB, cte_size: int = 8,
                 name: str = "cte_cache") -> None:
        if cte_size <= 0 or BLOCK_SIZE % cte_size:
            raise ValueError(f"cte_size must divide {BLOCK_SIZE}, got {cte_size}")
        if size_bytes < BLOCK_SIZE:
            raise ValueError("cache smaller than one CTE block")
        self.size_bytes = size_bytes
        self.cte_size = cte_size
        self.pages_per_block = BLOCK_SIZE // cte_size
        self.capacity_blocks = size_bytes // BLOCK_SIZE
        self._lru: "OrderedDict[int, bool]" = OrderedDict()
        self.stats = RatioStat(name)

    @property
    def reach_pages(self) -> int:
        return self.capacity_blocks * self.pages_per_block

    def _block_of(self, ppn: int) -> int:
        return ppn // self.pages_per_block

    def lookup(self, ppn: int) -> bool:
        block = self._block_of(ppn)
        hit = block in self._lru
        self.stats.record(hit)
        if hit:
            self._lru.move_to_end(block)
        return hit

    def contains(self, ppn: int) -> bool:
        return self._block_of(ppn) in self._lru

    def fill(self, ppn: int) -> "int | None":
        lru = self._lru
        block = ppn // self.pages_per_block
        if block in lru:
            lru.move_to_end(block)
            return None
        victim = None
        if len(lru) >= self.capacity_blocks:
            victim, _ = lru.popitem(last=False)
        lru[block] = True
        return victim

    def invalidate_page(self, ppn: int) -> None:
        self._lru.pop(self._block_of(ppn), None)

    def flush(self) -> None:
        self._lru.clear()

    @property
    def occupancy_blocks(self) -> int:
        return len(self._lru)
