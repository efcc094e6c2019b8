"""Reference implementations kept as differential-test oracles.

The production caches are columnar (flat arrays, ``IntLRU``); these are
the original per-entry ``OrderedDict`` implementations they replaced,
kept verbatim as the readable spec.  The differential property tests
(``tests/cache/test_columnar_differential.py``,
``tests/vm/test_tlb_differential.py``,
``tests/mc/test_ctecache_differential.py``) drive random operation
sequences through both and require identical hits, victims, and stats.
:class:`ReferenceCacheHierarchy` composes three reference caches into
the original object-passing L1/L2/L3 cascade, the oracle of
``tests/cache/test_hierarchy_differential.py``.

The codec oracles (:class:`ReferenceBitWriter`, :class:`ReferenceLZMatcher`
and the ``Reference*Compressor`` block encoders) are the original
byte-at-a-time bit writer, per-position hash-chain matcher and
per-field block encoders that the production codecs replaced, kept
verbatim; ``tests/compression/test_codec_differential.py`` requires
identical tokens, bitstreams and sizes from both.

:func:`decompose_vaddr` splits one access the way the replay loop once
did per access; ``tests/sim/test_columns.py`` holds the column-wise
``trace_columns`` to it.

:func:`access` serves one demand access through a production
:class:`~repro.cache.hierarchy.CacheHierarchy` and describes it as an
:class:`AccessResult` (hit level, load-to-use cycles, DRAM writebacks),
for the hierarchy tests; the replay loop builds no such record.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.prefetch import StridePrefetcher
from repro.cache.sa_cache import CacheLine
from repro.common.stats import RatioStat
from repro.common.units import BLOCK_SIZE, KIB
from repro.compression.block import (
    BDICompressor,
    BlockCompressor,
    BPCCompressor,
    CompressedBlock,
    CPackCompressor,
    SelectiveBlockCompressor,
    ZeroBlockCompressor,
)
from repro.compression.lz import MAX_MATCH, MIN_MATCH, LZConfig, LZToken


@dataclass(slots=True)
class AccessResult:
    """What one block access did."""

    hit_level: str  # "l1" | "l2" | "l3" | "memory"
    latency_cycles: int
    l3_miss: bool
    dram_writebacks: List[int] = field(default_factory=list)


_HIT_LEVEL_NAMES = ("l1", "l2", "l3", "memory")


def access(hierarchy: CacheHierarchy, address: int, is_write: bool = False,
           is_ptb: bool = False) -> AccessResult:
    """Serve one demand access; returns where it hit and at what cost."""
    writebacks: List[int] = []
    level = hierarchy.access_fast(address >> 6, is_write, is_ptb, writebacks)
    return AccessResult(_HIT_LEVEL_NAMES[level],
                        hierarchy._level_cycles[level], level == 3,
                        writebacks)


def decompose_vaddr(vaddr: int, huge_pages: bool) -> Tuple[int, int, int]:
    """One access: ``(vpn, tlb tag, block index within the page)``."""
    vpn = vaddr >> 12
    return vpn, (vpn >> 9) if huge_pages else vpn, (vaddr & 0xFFF) >> 6


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


class ReferenceNextLinePrefetcher:
    """Next-line prefetcher with automatic turn-off, as separate
    demand-training and miss calls (the spec the hierarchy inlines)."""

    def __init__(self, window: int = 64, min_accuracy: float = 0.25) -> None:
        self.window = window
        self.min_accuracy = min_accuracy
        self._outstanding: "OrderedDict[int, bool]" = OrderedDict()
        self._recent_results: List[bool] = []
        self.enabled = True
        self._cooloff = 0

    def train_demand(self, block: int) -> None:
        """A demand access; credits the prefetch that predicted it."""
        if block in self._outstanding:
            self._outstanding[block] = True

    def on_miss(self, block: int) -> List[int]:
        """Return blocks to prefetch for a demand miss at ``block``."""
        while len(self._outstanding) > self.window:
            _, used = self._outstanding.popitem(last=False)
            self._recent_results.append(used)
            if len(self._recent_results) >= self.window:
                accuracy = sum(self._recent_results) / len(self._recent_results)
                if accuracy < self.min_accuracy:
                    self.enabled = False
                self._recent_results.clear()
        if not self.enabled:
            self._cooloff += 1
            if self._cooloff >= self.window:
                self.enabled = True
                self._cooloff = 0
                self._recent_results.clear()
            return []
        self._outstanding[block + 1] = False
        return [block + 1]


class ReferenceCacheHierarchy:
    """The original L1 + inclusive L2 + exclusive L3 cascade over
    :class:`ReferenceSetAssociativeCache`, moving :class:`CacheLine`
    objects between levels (spec + differential oracle).

    ``access`` returns ``(hit_level, dram_writebacks)``.
    """

    def __init__(self, config: HierarchyConfig = HierarchyConfig(),
                 next_line: "ReferenceNextLinePrefetcher | None" = None) -> None:
        self.config = config
        self.l1 = ReferenceSetAssociativeCache(config.l1_size, config.l1_assoc, "l1")
        self.l2 = ReferenceSetAssociativeCache(config.l2_size, config.l2_assoc, "l2")
        self.l3 = ReferenceSetAssociativeCache(config.l3_size, config.l3_assoc, "l3")
        self.next_line = next_line or ReferenceNextLinePrefetcher()
        self._stride_l1 = StridePrefetcher(degree=config.l1_stride_degree)
        self._stride_l2 = StridePrefetcher(degree=config.l2_stride_degree)

    def access(self, address: int, is_write: bool = False,
               is_ptb: bool = False) -> "tuple[str, List[int]]":
        block = address >> 6
        prefetch = self.config.enable_prefetch
        writebacks: List[int] = []
        if prefetch:
            self.next_line.train_demand(block)
        if self.l1.lookup(block, is_write) is not None:
            return "l1", writebacks
        if prefetch:
            candidates = self.next_line.on_miss(block)
            candidates += self._stride_l1.on_access(block)
            self._issue_prefetches(candidates, writebacks)
        line = self.l2.lookup(block)
        if line is not None:
            self._fill_l1(block, is_write, line.compressed, line.is_ptb,
                          writebacks)
            return "l2", writebacks
        if prefetch:
            self._issue_prefetches(self._stride_l2.on_access(block), writebacks)
        if self.l3.lookup(block) is not None:
            moved = self.l3.invalidate(block)  # exclusive: the line moves up
            self._fill_l2(block, moved.dirty, moved.compressed, moved.is_ptb,
                          writebacks)
            self._fill_l1(block, is_write, moved.compressed, moved.is_ptb,
                          writebacks)
            return "l3", writebacks
        self._fill_l2(block, False, False, is_ptb, writebacks)
        self._fill_l1(block, is_write, False, is_ptb, writebacks)
        return "memory", writebacks

    def _fill_l1(self, block: int, is_write: bool, compressed: bool,
                 is_ptb: bool, writebacks: List[int]) -> None:
        victim = self.l1.fill(block, dirty=is_write, compressed=compressed,
                              is_ptb=is_ptb)
        if victim is not None and victim.dirty:
            l2_line = self.l2.peek(victim.block)
            if l2_line is not None:
                l2_line.dirty = True
            else:
                self._victim_to_l3(victim, writebacks)

    def _fill_l2(self, block: int, dirty: bool, compressed: bool,
                 is_ptb: bool, writebacks: List[int]) -> None:
        victim = self.l2.fill(block, dirty=dirty, compressed=compressed,
                              is_ptb=is_ptb)
        if victim is not None:
            l1_copy = self.l1.invalidate(victim.block)
            if l1_copy is not None and l1_copy.dirty:
                victim.dirty = True
            self._victim_to_l3(victim, writebacks)

    def _victim_to_l3(self, victim: CacheLine, writebacks: List[int]) -> None:
        l3_victim = self.l3.fill(victim.block, dirty=victim.dirty,
                                 compressed=victim.compressed,
                                 is_ptb=victim.is_ptb)
        if l3_victim is not None and l3_victim.dirty:
            writebacks.append(l3_victim.block)

    def _issue_prefetches(self, blocks: List[int], writebacks: List[int]) -> None:
        for block in blocks:
            if self.l1.contains(block) or self.l2.contains(block):
                continue
            moved = self.l3.invalidate(block)
            if moved is not None:
                self._fill_l2(block, moved.dirty, moved.compressed,
                              moved.is_ptb, writebacks)
            else:
                self._fill_l2(block, False, False, False, writebacks)

    def mark_compressed(self, address: int, compressed: bool = True) -> None:
        for cache in (self.l1, self.l2, self.l3):
            line = cache.peek(address >> 6)
            if line is not None:
                line.compressed = compressed

    def invalidate_everywhere(self, address: int) -> None:
        for cache in (self.l1, self.l2, self.l3):
            cache.invalidate(address >> 6)


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


class ReferenceBitWriter:
    """The original byte-at-a-time bit writer (spec + differential oracle)."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._pending_bits = 0

    def write(self, value: int, width: int) -> None:
        """Append the low ``width`` bits of ``value`` to the stream."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        accumulator = (self._accumulator << width) | value
        pending = self._pending_bits + width
        if pending >= 8:
            buffer = self._buffer
            while pending >= 8:
                pending -= 8
                buffer.append((accumulator >> pending) & 0xFF)
            accumulator &= (1 << pending) - 1
        self._accumulator = accumulator
        self._pending_bits = pending

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes (each written as an 8-bit code)."""
        for byte in data:
            self.write(byte, 8)

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._buffer) * 8 + self._pending_bits

    def getvalue(self) -> bytes:
        """Return the stream padded with zero bits to a whole byte."""
        result = bytearray(self._buffer)
        if self._pending_bits:
            result.append((self._accumulator << (8 - self._pending_bits)) & 0xFF)
        return bytes(result)


class ReferenceLZMatcher:
    """The original greedy hash-chain LZ matcher (spec + differential
    oracle): one ``hash()``-keyed chain insert per position and a
    byte-at-a-time match compare against every chain candidate."""

    def __init__(self, config: LZConfig = LZConfig()) -> None:
        self.config = config

    def tokenize(self, data: bytes) -> List[LZToken]:
        """Split ``data`` into LZ sequences using greedy matching."""
        window = self.config.window_size
        max_chain = self.config.max_chain
        tokens: List[LZToken] = []
        head: Dict[int, int] = {}  # 4-byte prefix hash -> most recent position
        prev: Dict[int, int] = {}  # position -> previous position w/ same hash
        literal_start = 0
        position = 0
        length = len(data)
        while position < length:
            best_length = 0
            best_offset = 0
            if position + MIN_MATCH <= length:
                key = data[position : position + MIN_MATCH]
                candidate = head.get(hash(key), -1)
                chain = 0
                while candidate >= 0 and chain < max_chain:
                    offset = position - candidate
                    if offset > window:
                        break
                    match_length = self._match_length(data, candidate, position)
                    if match_length > best_length:
                        best_length = match_length
                        best_offset = offset
                        if match_length >= MAX_MATCH:
                            break
                    candidate = prev.get(candidate, -1)
                    chain += 1
            if best_length >= MIN_MATCH:
                tokens.append(
                    LZToken(
                        literals=data[literal_start:position],
                        match_length=best_length,
                        match_offset=best_offset,
                    )
                )
                end = min(position + best_length, length - MIN_MATCH + 1)
                step = position
                while step < end:
                    self._insert(data, step, head, prev)
                    step += 1
                position += best_length
                literal_start = position
            else:
                self._insert(data, position, head, prev)
                position += 1
        if literal_start < length or not tokens:
            tokens.append(LZToken(literals=data[literal_start:]))
        return tokens

    @staticmethod
    def _match_length(data: bytes, candidate: int, position: int) -> int:
        limit = min(len(data) - position, MAX_MATCH)
        length = 0
        while length < limit and data[candidate + length] == data[position + length]:
            length += 1
        return length

    def _insert(
        self, data: bytes, position: int, head: Dict[int, int], prev: Dict[int, int]
    ) -> None:
        if position + MIN_MATCH > len(data):
            return
        key = hash(data[position : position + MIN_MATCH])
        if key in head:
            prev[position] = head[key]
        head[key] = position


class ReferenceBDICompressor(BDICompressor):
    """The original BDI encoder: builds every layout's bitstream and keeps
    the smallest (spec + differential oracle)."""

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        self._check_block(block)
        best: Optional[CompressedBlock] = None
        for layout_index, (base_size, delta_size) in enumerate(self.LAYOUTS):
            encoded = self._try_layout(block, layout_index, base_size, delta_size)
            if encoded is not None and (best is None or encoded.size_bits < best.size_bits):
                best = encoded
        return best

    def _try_layout(
        self, block: bytes, layout_index: int, base_size: int, delta_size: int
    ) -> Optional[CompressedBlock]:
        values = [
            int.from_bytes(block[i : i + base_size], "little")
            for i in range(0, BLOCK_SIZE, base_size)
        ]
        base = values[0]
        half = 1 << (delta_size * 8 - 1)
        full = 1 << (delta_size * 8)
        deltas: List[int] = []
        base_mask_bits = 0  # bit per value: 1 = delta from base, 0 = from zero
        for value in values:
            from_base = value - base
            from_zero = value
            if -half <= from_base < half:
                base_mask_bits = (base_mask_bits << 1) | 1
                deltas.append(from_base & (full - 1))
            elif -half <= from_zero < half:
                base_mask_bits = (base_mask_bits << 1) | 0
                deltas.append(from_zero & (full - 1))
            else:
                return None
        writer = ReferenceBitWriter()
        writer.write(layout_index, 3)
        writer.write(base, base_size * 8)
        writer.write(base_mask_bits, len(values))
        for delta in deltas:
            writer.write(delta, delta_size * 8)
        size_bits = writer.bit_length
        if size_bits >= BLOCK_SIZE * 8:
            return None
        return CompressedBlock(self.name, size_bits, writer.getvalue())


class ReferenceCPackCompressor(CPackCompressor):
    """The original C-Pack encoder (spec + differential oracle)."""

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        self._check_block(block)
        writer = ReferenceBitWriter()
        dictionary: List[int] = []
        for offset in range(0, BLOCK_SIZE, self.WORD_SIZE):
            word = int.from_bytes(block[offset : offset + self.WORD_SIZE], "big")
            self._encode_word(writer, dictionary, word)
        size_bits = writer.bit_length
        if size_bits >= BLOCK_SIZE * 8:
            return None
        return CompressedBlock(self.name, size_bits, writer.getvalue())

    def _encode_word(self, writer: ReferenceBitWriter, dictionary: List[int],
                     word: int) -> None:
        if word == 0:
            writer.write(0b00, 2)
            return
        if word in dictionary:
            writer.write(0b01, 2)
            writer.write(dictionary.index(word), 4)
            return
        if word <= 0xFF:
            writer.write(0b1101, 4)
            writer.write(word, 8)
            self._push(dictionary, word)
            return
        for index, entry in enumerate(dictionary):
            if (entry >> 8) == (word >> 8):
                writer.write(0b1100, 4)
                writer.write(index, 4)
                writer.write(word & 0xFF, 8)
                self._push(dictionary, word)
                return
        for index, entry in enumerate(dictionary):
            if (entry >> 16) == (word >> 16):
                writer.write(0b1110, 4)
                writer.write(index, 4)
                writer.write(word & 0xFFFF, 16)
                self._push(dictionary, word)
                return
        writer.write(0b10, 2)
        writer.write(word, 32)
        self._push(dictionary, word)

    def _push(self, dictionary: List[int], word: int) -> None:
        dictionary.append(word)
        if len(dictionary) > self.DICT_ENTRIES:
            dictionary.pop(0)


class ReferenceBPCCompressor(BPCCompressor):
    """The original bit-plane encoder: integer transpose and one writer
    call per plane field (spec + differential oracle)."""

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        self._check_block(block)
        words = [
            int.from_bytes(block[i : i + self.WORD_SIZE], "big")
            for i in range(0, BLOCK_SIZE, self.WORD_SIZE)
        ]
        planes = self._to_planes(words)
        writer = ReferenceBitWriter()
        writer.write(words[0], 32)  # base word stored raw
        for plane in planes:
            self._encode_plane(writer, plane)
        size_bits = writer.bit_length
        if size_bits >= BLOCK_SIZE * 8:
            return None
        return CompressedBlock(self.name, size_bits, writer.getvalue())

    def _to_planes(self, words: List[int]) -> List[int]:
        deltas = [
            (words[i + 1] - words[i]) & ((1 << 33) - 1) for i in range(self.DELTA_COUNT)
        ]
        planes = []
        for plane_index in range(33):
            plane = 0
            for delta in deltas:
                plane = (plane << 1) | ((delta >> plane_index) & 1)
            planes.append(plane)
        return planes

    def _encode_plane(self, writer: ReferenceBitWriter, plane: int) -> None:
        all_ones = (1 << self.DELTA_COUNT) - 1
        if plane == 0:
            writer.write(0b00, 2)
        elif plane == all_ones:
            writer.write(0b01, 2)
        elif bin(plane).count("1") == 1:
            writer.write(0b10, 2)
            writer.write(plane.bit_length() - 1, 4)
        else:
            writer.write(0b11, 2)
            writer.write(plane, self.DELTA_COUNT)


class ReferenceSelectiveBlockCompressor(SelectiveBlockCompressor):
    """The original best-of selector over the reference encoders: runs
    every encoder on every block, the all-zero block included."""

    def __init__(self) -> None:
        super().__init__()
        self._compressors: List[BlockCompressor] = [
            ZeroBlockCompressor(),
            ReferenceBDICompressor(),
            ReferenceBPCCompressor(),
            ReferenceCPackCompressor(),
        ]
        self._by_name = {c.name: c for c in self._compressors}

    def compress(self, block: bytes) -> CompressedBlock:
        best: Optional[CompressedBlock] = None
        for compressor in self._compressors:
            candidate = compressor.compress(block)
            if candidate is not None and (best is None or candidate.size_bits < best.size_bits):
                best = candidate
        if best is None:
            return CompressedBlock(
                "raw", self.HEADER_BITS + BLOCK_SIZE * 8, bytes(block)
            )
        return CompressedBlock(
            best.algorithm, best.size_bits + self.HEADER_BITS, best.payload
        )
