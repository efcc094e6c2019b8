"""The OS-inspired two-level memory engine (Section IV-B).

ML1 holds hot pages uncompressed (one 4 KB chunk each); ML2 holds cold
pages Deflate-compressed in size-class sub-chunks.  A single chunk pool
backs both: ML2's free lists grow by taking chunks from ML1's free list
and dismantle empty super-chunks back into it.

This class implements everything the OS-inspired approach shares --
placement under a DRAM budget, page-level CTEs and their cache, the
recency list, eviction watermarks, and the ML2 access/migration path.
Subclasses differ in (a) how a CTE-cache miss is translated (serial fetch
vs TMCC's embedded-CTE parallel fetch) and (b) which Deflate engine's
latencies ML2 pays (IBM's vs the memory-specialized ASIC).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRNG
from repro.common.units import BLOCK_SIZE, PAGE_SIZE
from repro.core.base import (
    MemoryController,
    MissResult,
    PATH_CTE_HIT,
    PATH_ML2,
    PATH_SERIAL_NO_CTE,
)
from repro.core.pipeline import (
    STAGE_CTE_FETCH,
    STAGE_DATA_FETCH,
    STAGE_DECOMPRESS,
    STAGE_EMERGENCY_EVICT,
    STAGE_EVICT,
    STAGE_MIGRATION_STALL,
    STAGE_ML2_READ,
    SpanRecord,
)
from repro.core.compmodel import PageCompressionModel, PageRecord
from repro.core.config import SystemConfig
from repro.dram.system import DRAMSystem
from repro.mc.cte import CTE_SIZE_PAGE, PageCTE
from repro.mc.ctecache import CTECache
from repro.mc.freelist import ML1FreeList, ML2FreeLists, SubChunk
from repro.mc.migration import MigrationBuffer
from repro.mc.recency import RecencyList

#: Sub-chunk padding slack when planning the ML1/ML2 split (size-class
#: rounding makes ML2 slightly bigger than the sum of compressed sizes).
_PLAN_SLACK = 1.08


class TwoLevelController(MemoryController):
    """Shared ML1/ML2 machinery; see subclasses for the CTE policies."""

    name = "twolevel"

    def __init__(self, config: SystemConfig, dram: DRAMSystem,
                 seed: int = 0) -> None:
        super().__init__(config, dram, seed=seed)
        self.cte_cache = CTECache(
            size_bytes=config.tmcc_cte_cache_bytes,
            cte_size=CTE_SIZE_PAGE,
            name=f"{self.name}_cte",
        )
        self.ml1_free = ML1FreeList()
        self.ml2_free = ML2FreeLists()
        self.recency = RecencyList(DeterministicRNG(seed ^ 0xEC))
        self.migration = MigrationBuffer()
        self._cte: Dict[int, PageCTE] = {}
        self._subchunk: Dict[int, SubChunk] = {}
        self._model: Optional[PageCompressionModel] = None
        self._pinned: set = set()  # page-table pages never leave ML1
        self._total_pages = 0
        self._budget_chunks = 0

    # ------------------------------------------------------------------
    # ML2 engine selection (overridden by the OS-inspired baseline)
    # ------------------------------------------------------------------

    def _decompress_half_ns(self, record: PageRecord) -> float:
        return record.decompress_half_ns

    def _decompress_full_ns(self, record: PageRecord) -> float:
        return record.decompress_full_ns

    def _compress_ns(self, record: PageRecord) -> float:
        return record.compress_ns

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def initialize(
        self,
        data_ppns: Sequence[int],
        hotness_rank: Dict[int, int],
        table_ppns: Sequence[int],
        model: PageCompressionModel,
        dram_budget_bytes: Optional[int] = None,
    ) -> None:
        """Split pages across ML1/ML2 to fit ``dram_budget_bytes``.

        Models the paper's warm-up equilibrium: the hottest pages that fit
        live in ML1, everything colder sits compressed in ML2.  With no
        budget, everything is ML1 (no memory is being saved).
        """
        self._model = model
        self._total_pages = len(data_ppns) + len(table_ppns)
        footprint = self._total_pages * PAGE_SIZE
        metadata = self._total_pages * (CTE_SIZE_PAGE + RecencyList.ELEMENT_BYTES)
        if dram_budget_bytes is None:
            # No budget: everything fits in ML1 (no memory being saved).
            dram_budget_bytes = (footprint + metadata
                                 + (self.config.ml1_low_watermark + 1) * PAGE_SIZE)

        budget_chunks = (dram_budget_bytes - metadata) // PAGE_SIZE
        self._budget_chunks = budget_chunks

        ordered = sorted(data_ppns, key=lambda p: hotness_rank.get(p, 1 << 30))
        must_ml1 = [p for p in table_ppns]
        compressible: List[int] = []
        for ppn in ordered:
            if model.record_for(ppn).deflate_incompressible:
                must_ml1.append(ppn)
            else:
                compressible.append(ppn)

        # Keep a free-chunk reserve, scaled down for small simulations.
        reserve = min(self.config.ml1_low_watermark, max(2, budget_chunks // 8))
        available = budget_chunks - len(must_ml1) - reserve
        if available < 0:
            raise ConfigError(
                f"DRAM budget {dram_budget_bytes} cannot hold even the "
                f"{len(must_ml1)} uncompressible/pinned pages"
            )
        ml1_count = self._plan_split(compressible, available)

        # Build the chunk pool and place pages.
        self.ml1_free.push_many(range(budget_chunks))
        for ppn in must_ml1 + compressible[:ml1_count]:
            chunk = self.ml1_free.pop()
            self._dram_page[ppn] = chunk
            self._cte[ppn] = PageCTE(dram_page=chunk, in_ml2=False)
        for ppn in compressible[ml1_count:]:
            self._place_in_ml2(ppn)
        self._pinned = set(table_ppns)

        # Recency list: coldest pushed first so the hottest end up at MRU.
        for ppn in reversed(compressible[:ml1_count]):
            self.recency.push_hot(ppn)
        self._cte_table_base = budget_chunks * PAGE_SIZE

    def _plan_split(self, compressible: List[int], available_chunks: int) -> int:
        """Largest hot prefix kept in ML1 such that everything fits."""
        if self._model is None:
            raise RuntimeError("initialize() sets the model first")
        sizes = [
            self.ml2_free.class_for(self._model.record_for(p).deflate_bytes)
            for p in compressible
        ]
        suffix = [0] * (len(sizes) + 1)
        for i in range(len(sizes) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + sizes[i]

        def fits(ml1_count: int) -> bool:
            ml2_chunks = -(-int(suffix[ml1_count] * _PLAN_SLACK) // PAGE_SIZE)
            return ml1_count + ml2_chunks <= available_chunks

        if not fits(0):
            raise ConfigError(
                "DRAM budget too small even with full compression"
            )
        low, high = 0, len(sizes)
        while low < high:
            mid = (low + high + 1) // 2
            if fits(mid):
                low = mid
            else:
                high = mid - 1
        return low

    def _place_in_ml2(self, ppn: int) -> bool:
        record = self._model.record_for(ppn)
        subchunk = self.ml2_free.alloc(record.deflate_bytes, self.ml1_free)
        if subchunk is None:
            return False
        self._subchunk[ppn] = subchunk
        base_chunk = subchunk.superchunk.chunk_ids[0]
        self._dram_page[ppn] = base_chunk
        self._cte[ppn] = PageCTE(
            dram_page=base_chunk,
            dram_offset=subchunk.slot * subchunk.size,
            in_ml2=True,
            compressed_size=record.deflate_bytes,
        )
        return True

    # ------------------------------------------------------------------
    # Runtime: LLC misses
    # ------------------------------------------------------------------

    def serve_l3_miss(self, ppn: int, block_index: int, now_ns: float,
                      is_write: bool = False) -> MissResult:
        self._count_l3_miss()
        cte = self._cte.get(ppn)
        if cte is None:  # page unknown to the controller (e.g. I/O space)
            return self._serve_direct(ppn, block_index, now_ns)

        in_ml2 = cte.in_ml2
        if self.cte_cache.lookup(ppn):
            spans, total = self._fetch_data(ppn, cte, block_index, now_ns)
            path = PATH_ML2 if in_ml2 else PATH_CTE_HIT
        else:
            spans, total, path = self._translate(ppn, cte, block_index,
                                                 now_ns)
            self.cte_cache.fill(ppn)

        if not cte.in_ml2 and not cte.is_incompressible:
            self.recency.on_access(ppn)
        return self._finish(path, spans, total, now_ns, ppn)

    def _translate(self, ppn: int, cte: PageCTE, block_index: int,
                   now_ns: float) -> Tuple[Tuple[SpanRecord, ...], float, str]:
        """CTE-cache miss; returns ``(spans, total_ns, path)``.

        The baseline fetches the CTE *serially* (Figure 8a) -- the data
        access cannot start before the CTE arrives.  TMCC overrides this
        with the parallel speculative access.
        """
        path = PATH_ML2 if cte.in_ml2 else PATH_SERIAL_NO_CTE
        cte_ns = self._fetch_cte(ppn, now_ns)
        data_spans, data_ns = self._fetch_data(ppn, cte, block_index,
                                               now_ns + cte_ns)
        spans = ((STAGE_CTE_FETCH, now_ns, cte_ns, True, False, 0.0),)
        return spans + data_spans, cte_ns + data_ns, path

    def _fetch_cte(self, ppn: int, now_ns: float) -> float:
        self.stats.counter("cte_dram_fetches").value += 1
        return self._dram_read_ns(self._cte_address(ppn, CTE_SIZE_PAGE),
                                  now_ns, include_noc=False)

    def _fetch_data(self, ppn: int, cte: PageCTE, block_index: int,
                    start_ns: float) -> Tuple[Tuple[SpanRecord, ...], float]:
        """Fetch the block: one DRAM read in ML1, or the ML2 decompress +
        migrate service.  Returns ``(spans, total_ns)``."""
        if cte.in_ml2:
            return self._ml2(ppn, cte, start_ns)
        latency = self._dram_read_ns(self._data_address(ppn, block_index),
                                     start_ns)
        return ((STAGE_DATA_FETCH, start_ns, latency, True, False, 0.0),), \
            latency

    # ------------------------------------------------------------------
    # ML2 access: decompress + background migration to ML1
    # ------------------------------------------------------------------

    def _ml2(self, ppn: int, cte: PageCTE,
             start_ns: float) -> Tuple[Tuple[SpanRecord, ...], float]:
        """The ML2 service, anchored at ``start_ns``:

        ml2_read -> decompress -> migration_stall -> evict

        The MC replies as soon as the needed block decompresses
        (half-page latency); the full-page migration drains in the
        background through the 8-entry buffer, whose occupancy is
        reserved at the access's *arrival* time, and the page moves to
        ML1 once the reply is out.  Eviction normally runs behind demand
        accesses and contributes zero foreground latency; under the
        Section VI priority flip (free list below the critical
        watermark) the demand access pays for it.  Resilience-enabled
        runs add the ``emergency_evict`` watchdog stage.
        """
        record = self._model.record_for(ppn)
        self.stats.counter("ml2_accesses").value += 1
        compressed_blocks = -(-cte.compressed_size // BLOCK_SIZE)
        decompress_ns = self._decompress_half_ns(record)
        migration_ns = self._decompress_full_ns(record) + 64 * \
            self.dram.config.timing.burst_ns
        base_address = self._data_address(ppn, 0)
        first_read = self._dram_read_ns(base_address, start_ns)
        self.dram.stream(base_address, compressed_blocks - 1, start_ns)
        stall_ns = self.migration.reserve(start_ns, migration_ns).stall_ns
        reply_ns = first_read + decompress_ns
        total = reply_ns + stall_ns
        self._migrate_to_ml1(ppn, cte, start_ns + total)
        eviction_ns = self._maybe_evict(start_ns + total)
        if self.ml1_free.count < self.config.ml1_critical_watermark:
            self.stats.counter("priority_flips").value += 1
            evict_ns = eviction_ns
        else:
            evict_ns = 0.0
        spans = (
            (STAGE_ML2_READ, start_ns, first_read, True, False, 0.0),
            (STAGE_DECOMPRESS, start_ns + first_read, decompress_ns,
             True, False, 0.0),
            (STAGE_MIGRATION_STALL, start_ns + reply_ns, stall_ns,
             True, False, 0.0),
            (STAGE_EVICT, start_ns + total, evict_ns, True, False, 0.0),
        )
        total += evict_ns
        if self.resilience.enabled:
            emergency_ns = self._emergency_evict(start_ns + total)
            spans += ((STAGE_EMERGENCY_EVICT, start_ns + total, emergency_ns,
                       True, False, 0.0),)
            total += emergency_ns
        return spans, total

    def _emergency_evict(self, start_ns: float) -> float:
        """Capacity-pressure watchdog (resilience-enabled runs only).

        When the ordinary eviction pump leaves the ML1 free list empty --
        e.g. under an injected free-space-exhaustion fault -- the pump
        wedged state that used to persist silently is converted into a
        modeled emergency migration: force one eviction in the demand
        access's foreground and account it under ``resilience.*``.
        """
        if self.ml1_free.count > 0:
            return 0.0
        resilience = self.resilience
        resilience.count("emergency_evictions")
        foreground_ns = self._maybe_evict(start_ns, force_one=True)
        if self.ml1_free.count == 0:
            # Even the emergency pass found nothing to evict (everything
            # pinned/incompressible): the controller keeps serving from
            # ML2 (decompress-on-access) instead of raising.
            resilience.count("emergency_eviction_starved")
        return foreground_ns

    def _migrate_to_ml1(self, ppn: int, cte: PageCTE, now_ns: float) -> None:
        chunk = self.ml1_free.pop()
        if chunk is None:
            self._maybe_evict(now_ns, force_one=True)
            chunk = self.ml1_free.pop()
            if chunk is None:
                # Truly wedged: leave the page in ML2 (decompress-on-access).
                self.stats.counter("migration_failed").increment()
                return
        subchunk = self._subchunk.pop(ppn, None)
        if subchunk is not None:
            self.ml2_free.free(subchunk, self.ml1_free)
        self._dram_page[ppn] = chunk
        cte.dram_page = chunk
        cte.dram_offset = 0
        cte.in_ml2 = False
        cte.compressed_size = 0
        self.dram.stream(chunk * PAGE_SIZE, 64, now_ns, is_write=True)
        self.recency.push_hot(ppn)
        self.stats.counter("ml2_to_ml1_migrations").increment()
        if self._probe is not None:
            self._probe.emit("migration", now_ns, direction="ml2_to_ml1",
                             ppn=ppn)

    # ------------------------------------------------------------------
    # Eviction pump (ML1 -> ML2)
    # ------------------------------------------------------------------

    def _maybe_evict(self, now_ns: float, force_one: bool = False) -> float:
        """Run the eviction pump; returns the compression time spent.

        The return value is the foreground cost a caller pays when the
        Section VI priority flip is in effect (free list below the
        critical watermark); under normal priority it is ignored.
        """
        target = self.config.ml1_low_watermark
        foreground_ns = 0.0
        evicted = 0
        guard = 0
        while (self.ml1_free.count < target or (force_one and evicted == 0)):
            guard += 1
            if guard > 128:
                break
            victim = self.recency.evict_coldest()
            if victim is None:
                self.stats.counter("eviction_starved").increment()
                break
            cte = self._cte.get(victim)
            if cte is None or cte.in_ml2 or victim in self._pinned:
                continue
            record = self._model.record_for(victim)
            resilience = self.resilience
            forced_incompressible = False
            if resilience.enabled and resilience.incompressible_burst > 0:
                # Injected burst: the victim's fresh contents no longer
                # compress (e.g. newly encrypted pages).
                resilience.incompressible_burst -= 1
                resilience.count("incompressible_forced")
                forced_incompressible = True
            if record.deflate_incompressible or forced_incompressible:
                # Retain in ML1, off the recency list (Section IV-B).
                cte.is_incompressible = True
                self.stats.counter("incompressible_retained").increment()
                if forced_incompressible:
                    resilience.count("overflow_uncompressed")
                continue
            old_chunk = self._dram_page[victim]
            self.ml1_free.push(old_chunk)
            if not self._place_in_ml2(victim):
                # Could not carve a sub-chunk; undo the free-list push.
                popped = self.ml1_free.pop()
                self._dram_page[victim] = popped
                self._cte[victim] = PageCTE(dram_page=popped, in_ml2=False)
                self.stats.counter("eviction_failed").increment()
                if resilience.enabled:
                    # Overflow-to-uncompressed: the victim stays resident
                    # uncompressed (off the recency list, like Compresso's
                    # overflow region) and the pump keeps draining other
                    # candidates instead of giving up mid-pressure.
                    self._cte[victim].is_incompressible = True
                    resilience.count("overflow_uncompressed")
                    continue
                self.recency.push_hot(victim)
                break
            # Compressed page streams out in the background.
            compressed_blocks = -(-record.deflate_bytes // BLOCK_SIZE)
            self.dram.stream(self._dram_page[victim] * PAGE_SIZE,
                             compressed_blocks, now_ns, is_write=True)
            self.migration.acquire(now_ns, self._compress_ns(record))
            foreground_ns += self._compress_ns(record)
            self.cte_cache.invalidate_page(victim)
            self.stats.counter("ml1_to_ml2_evictions").increment()
            if self._probe is not None:
                self._probe.emit("migration", now_ns, direction="ml1_to_ml2",
                                 ppn=victim)
            evicted += 1
        return foreground_ns

    # ------------------------------------------------------------------
    # Writebacks
    # ------------------------------------------------------------------

    def serve_writeback(self, ppn: int, block_index: int, now_ns: float) -> None:
        self.dram.write(self._data_address(ppn, block_index), now_ns)
        self.stats.counter("writebacks").increment()
        cte = self._cte.get(ppn)
        if cte is not None and cte.is_incompressible and not cte.in_ml2:
            # Writebacks may change compressibility; 1% re-add (Section IV-B).
            if self.recency.maybe_readd_after_writeback(ppn):
                cte.is_incompressible = False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary.update({
            "ml1_pages": self.ml1_page_count,
            "ml2_pages": self.ml2_page_count,
            "budget_chunks": self._budget_chunks,
            "ml1_free_chunks": self.ml1_free.count,
            "cte_cache_bytes": self.cte_cache.size_bytes,
            "ml1_low_watermark": self.config.ml1_low_watermark,
            "ml1_critical_watermark": self.config.ml1_critical_watermark,
        })
        return summary

    def dram_used_bytes(self) -> int:
        """Chunks in use (ML1 pages + ML2 super-chunks) + metadata."""
        used_chunks = self._budget_chunks - self.ml1_free.count
        metadata = self._total_pages * CTE_SIZE_PAGE + self.recency.overhead_bytes()
        return used_chunks * PAGE_SIZE + metadata

    @property
    def ml2_page_count(self) -> int:
        return sum(1 for cte in self._cte.values() if cte.in_ml2)

    @property
    def ml1_page_count(self) -> int:
        return sum(1 for cte in self._cte.values() if not cte.in_ml2)

    @property
    def cte_hit_rate(self) -> float:
        return self.cte_cache.stats.hit_rate

    def ml2_access_rate(self) -> float:
        """ML2 accesses per LLC miss (Figure 21's metric)."""
        misses = self.stats.count_of("l3_misses")
        if not misses:
            return 0.0
        return self.stats.count_of("ml2_accesses") / misses

    def ml2_metrics(self) -> Dict[str, float]:
        """The ``controller.ml2`` metrics source."""
        return {
            "access_rate": self.ml2_access_rate(),
            "ml1_pages": self.ml1_page_count,
            "ml2_pages": self.ml2_page_count,
        }
