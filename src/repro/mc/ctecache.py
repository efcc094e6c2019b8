"""The dedicated CTE cache inside the memory controller.

CTEs live in DRAM as a linear table; the MC caches 64 B *CTE blocks*.
Translation reach per block is what separates the designs (Table III):

- TMCC: 8 B page-level CTEs, so one 64 B block translates 8 pages
  (32 KB reach); the paper gives TMCC a 64 KB cache.
- Compresso: one 64 B CTE per page (4 KB reach); the paper gives it a
  128 KB cache -- and it still misses more.

The cache is indexed by CTE-block number = ppn // pages_per_block.

Storage is columnar (:class:`repro.common.lru.IntLRU`); the original
``OrderedDict`` cache lives on in ``tests/oracles.py`` as the
differential-test oracle.
"""

from __future__ import annotations

from repro.common.lru import IntLRU
from repro.common.stats import RatioStat
from repro.common.units import BLOCK_SIZE, KIB


class CTECache:
    """LRU cache of CTE blocks keyed by physical page number."""

    def __init__(self, size_bytes: int = 64 * KIB, cte_size: int = 8,
                 name: str = "cte_cache") -> None:
        if cte_size <= 0 or BLOCK_SIZE % cte_size:
            raise ValueError(f"cte_size must divide {BLOCK_SIZE}, got {cte_size}")
        if size_bytes < BLOCK_SIZE:
            raise ValueError("cache smaller than one CTE block")
        self.size_bytes = size_bytes
        self.cte_size = cte_size
        #: Pages covered by one cached 64 B block.
        self.pages_per_block = BLOCK_SIZE // cte_size
        self.capacity_blocks = size_bytes // BLOCK_SIZE
        self._lru = IntLRU()  # CTE block id -> True
        self.stats = RatioStat(name)

    @property
    def reach_pages(self) -> int:
        """Total pages whose CTEs fit in the cache at once."""
        return self.capacity_blocks * self.pages_per_block

    def _block_of(self, ppn: int) -> int:
        return ppn // self.pages_per_block

    def lookup(self, ppn: int) -> bool:
        """Probe for the CTE of page ``ppn``; records hit/miss."""
        block = ppn // self.pages_per_block
        stats = self.stats
        stats.total += 1
        if block in self._lru:
            stats.hits += 1
            self._lru.move_to_end(block)
            return True
        return False

    def contains(self, ppn: int) -> bool:
        """Probe without recording a stat."""
        return ppn // self.pages_per_block in self._lru

    def fill(self, ppn: int) -> "int | None":
        """Cache the CTE block covering ``ppn`` (MC always caches fetched
        CTEs -- Section VII explains why this matters for TLB hits).

        Returns the evicted CTE block id, or ``None`` when nothing left
        the cache (so victim-spill schemes need no set difference).
        """
        lru = self._lru
        block = ppn // self.pages_per_block
        if block in lru:
            lru.move_to_end(block)
            return None
        victim = None
        if len(lru) >= self.capacity_blocks:
            victim = lru.pop_lru()
        lru.insert_mru(block)
        return victim

    def invalidate_page(self, ppn: int) -> None:
        self._lru.discard(ppn // self.pages_per_block)

    def flush(self) -> None:
        self._lru.clear()

    @property
    def occupancy_blocks(self) -> int:
        return len(self._lru)
