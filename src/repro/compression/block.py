"""Block-level (64 B) compression algorithms.

The paper's Compresso baseline compresses each cache-line-sized memory block
with the smallest output among BDI, BPC, C-Pack, and Zero-Block (Section
V-B5 / Figure 15).  Each algorithm here is a faithful functional
implementation: ``compress`` produces a bitstream whose length is what the
hardware would store, and ``decompress`` restores the exact original bytes.

All algorithms operate on blocks of exactly :data:`~repro.common.units.BLOCK_SIZE`
bytes; the selector handles arbitrary block sequences (pages).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.bits import BitReader, BitWriter
from repro.common.units import BLOCK_SIZE


@dataclass(frozen=True)
class CompressedBlock:
    """The result of compressing one 64 B block.

    ``size_bits`` is the hardware storage cost (header + payload); ``payload``
    carries everything needed to reconstruct the block, and ``algorithm``
    names the encoder that produced it so the selector can dispatch
    decompression.
    """

    algorithm: str
    size_bits: int
    payload: bytes

    @property
    def size_bytes(self) -> int:
        """Storage cost rounded up to whole bytes."""
        return (self.size_bits + 7) // 8


class BlockCompressor:
    """Interface shared by all 64 B block compressors."""

    #: Short name used in compressed-block headers and reports.
    name = "abstract"

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        """Compress ``block``; return ``None`` when this encoder cannot win.

        Returning ``None`` (rather than an expansion) mirrors hardware,
        where each engine raises a "no fit" signal and the selector falls
        back to storing the block raw.
        """
        raise NotImplementedError

    def decompress(self, compressed: CompressedBlock) -> bytes:
        """Restore the original 64 bytes."""
        raise NotImplementedError

    @staticmethod
    def _check_block(block: bytes) -> None:
        if len(block) != BLOCK_SIZE:
            raise ValueError(
                f"block compressors take {BLOCK_SIZE} B blocks, got {len(block)} B"
            )


class ZeroBlockCompressor(BlockCompressor):
    """Detects all-zero blocks; they compress to a 1-bit flag."""

    name = "zero"

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        self._check_block(block)
        if any(block):
            return None
        return CompressedBlock(self.name, size_bits=1, payload=b"")

    def decompress(self, compressed: CompressedBlock) -> bytes:
        return bytes(BLOCK_SIZE)


class BDICompressor(BlockCompressor):
    """Base-Delta-Immediate compression (Pekhimenko et al., PACT'12).

    Tries each (base size, delta size) pair from the original paper; the
    block is viewed as an array of ``base_size``-byte values, each encoded
    as a signed delta from the first value (the base) or from an implicit
    zero base (the "immediate" part, which captures small values mixed with
    pointers).  The smallest successful layout wins.
    """

    name = "bdi"

    #: (base_bytes, delta_bytes) candidate layouts, per the BDI paper.
    LAYOUTS: Sequence[Tuple[int, int]] = (
        (8, 1), (8, 2), (8, 4),
        (4, 1), (4, 2),
        (2, 1),
    )

    #: Layout indexes, cheapest encoding first (ties in ``LAYOUTS``
    #: order).  A layout's size is a constant,
    #: ``3 + 8*base + n + 8*n*delta`` bits for ``n = 64 / base`` values
    #: (139 to 331, all under a raw block's 512), so the first layout
    #: that fits is the smallest.
    _CHEAPEST_FIRST: Sequence[int] = tuple(
        index for _, index in sorted(
            (3 + 8 * base + (BLOCK_SIZE // base) * (1 + 8 * delta), index)
            for index, (base, delta) in enumerate(LAYOUTS)
        )
    )

    #: ``struct`` formats reading a block as little-endian base-size values.
    _FORMATS = {2: "<32H", 4: "<16I", 8: "<8Q"}

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        self._check_block(block)
        for layout_index in self._CHEAPEST_FIRST:
            encoded = self._try_layout(block, layout_index)
            if encoded is not None:
                return encoded
        return None

    def _try_layout(self, block: bytes, layout_index: int) -> Optional[CompressedBlock]:
        base_size, delta_size = self.LAYOUTS[layout_index]
        values = struct.unpack(self._FORMATS[base_size], block)
        base = values[0]
        delta_bits = delta_size * 8
        half = 1 << (delta_bits - 1)
        low = (1 << delta_bits) - 1
        deltas = 0
        base_mask_bits = 0  # bit per value: 1 = delta from base, 0 = from zero
        for value in values:
            from_base = value - base
            if -half <= from_base < half:
                base_mask_bits = (base_mask_bits << 1) | 1
                deltas = (deltas << delta_bits) | (from_base & low)
            elif value < half:
                base_mask_bits <<= 1
                deltas = (deltas << delta_bits) | value
            else:
                return None
        writer = BitWriter()
        writer.write(layout_index, 3)
        writer.write(base, base_size * 8)
        writer.write(base_mask_bits, len(values))
        writer.write(deltas, len(values) * delta_bits)
        return CompressedBlock(self.name, writer.bit_length, writer.getvalue())

    def decompress(self, compressed: CompressedBlock) -> bytes:
        reader = BitReader(compressed.payload)
        layout_index = reader.read(3)
        base_size, delta_size = self.LAYOUTS[layout_index]
        count = BLOCK_SIZE // base_size
        base = reader.read(base_size * 8)
        base_mask = reader.read(count)
        half = 1 << (delta_size * 8 - 1)
        full = 1 << (delta_size * 8)
        out = bytearray()
        for i in range(count):
            raw = reader.read(delta_size * 8)
            delta = raw - full if raw >= half else raw
            uses_base = (base_mask >> (count - 1 - i)) & 1
            value = (base + delta) if uses_base else delta
            out += (value & ((1 << (base_size * 8)) - 1)).to_bytes(base_size, "little")
        return bytes(out)


class CPackCompressor(BlockCompressor):
    """C-Pack (Chen et al., TVLSI'10): dictionary + pattern coding.

    Processes the block as sixteen 32-bit words against a 16-entry FIFO
    dictionary.  Patterns (code, payload) follow the original paper:

    ==========  =========================================  ============
    pattern     meaning                                    encoded bits
    ==========  =========================================  ============
    ``00``      all-zero word                              2
    ``01``      full dictionary match                      2 + 4
    ``10``      uncompressed word                          2 + 32
    ``1100``    match on upper 3 bytes, low byte literal   4 + 4 + 8
    ``1101``    zero-extended byte (000X)                  4 + 8
    ``1110``    match on upper 2 bytes, 2 low literal      4 + 4 + 16
    ==========  =========================================  ============
    """

    name = "cpack"
    WORD_SIZE = 4
    DICT_ENTRIES = 16

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        self._check_block(block)
        dictionary: List[int] = []
        # Upper 3 and upper 2 bytes of each dictionary entry, in step
        # with ``dictionary``, for the partial-match patterns.
        upper3: List[int] = []
        upper2: List[int] = []
        bits = ""
        for word in struct.unpack(">16I", block):
            if word == 0:
                bits += "00"
                continue
            if word in dictionary:
                bits += f"01{dictionary.index(word):04b}"
                continue
            if word <= 0xFF:
                bits += f"1101{word:08b}"
            elif word >> 8 in upper3:
                bits += f"1100{upper3.index(word >> 8):04b}{word & 0xFF:08b}"
            elif word >> 16 in upper2:
                bits += f"1110{upper2.index(word >> 16):04b}{word & 0xFFFF:016b}"
            else:
                bits += f"10{word:032b}"
            # A block's sixteen words never overflow the 16-entry FIFO.
            dictionary.append(word)
            upper3.append(word >> 8)
            upper2.append(word >> 16)
        if len(bits) >= BLOCK_SIZE * 8:
            return None
        writer = BitWriter()
        writer.write(int(bits, 2), len(bits))
        return CompressedBlock(self.name, len(bits), writer.getvalue())

    def _push(self, dictionary: List[int], word: int) -> None:
        dictionary.append(word)
        if len(dictionary) > self.DICT_ENTRIES:
            dictionary.pop(0)

    def decompress(self, compressed: CompressedBlock) -> bytes:
        reader = BitReader(compressed.payload)
        dictionary: List[int] = []
        words: List[int] = []
        while len(words) < BLOCK_SIZE // self.WORD_SIZE:
            words.append(self._decode_word(reader, dictionary))
        out = bytearray()
        for word in words:
            out += word.to_bytes(self.WORD_SIZE, "big")
        return bytes(out)

    def _decode_word(self, reader: BitReader, dictionary: List[int]) -> int:
        prefix = reader.read(2)
        if prefix == 0b00:
            return 0
        if prefix == 0b01:
            return dictionary[reader.read(4)]
        if prefix == 0b10:
            word = reader.read(32)
            self._push(dictionary, word)
            return word
        # prefix 0b11: read two more bits to pick the subpattern.
        sub = reader.read(2)
        if sub == 0b00:  # 1100: upper-3-byte match
            entry = dictionary[reader.read(4)]
            word = (entry & ~0xFF) | reader.read(8)
        elif sub == 0b01:  # 1101: zero-extended byte
            word = reader.read(8)
        elif sub == 0b10:  # 1110: upper-2-byte match
            entry = dictionary[reader.read(4)]
            word = (entry & ~0xFFFF) | reader.read(16)
        else:
            raise ValueError(f"invalid C-Pack pattern 11{sub:02b}")
        self._push(dictionary, word)
        return word


class BPCCompressor(BlockCompressor):
    """Bit-Plane Compression (Kim et al., ISCA'16), simplified.

    The block is treated as 16 32-bit words.  BPC delta-transforms
    consecutive words, transposes the 15 deltas into 33 bit-planes (32 data
    planes plus the sign plane), then run-length/pattern-codes each plane.
    This implementation keeps the delta + bit-plane transform and encodes
    each plane with the original paper's zero/ones/single-one patterns; the
    richer DBX patterns are approximated, which costs a little ratio but
    preserves ordering against BDI/C-Pack.
    """

    name = "bpc"
    WORD_SIZE = 4
    WORDS = BLOCK_SIZE // WORD_SIZE  # 16
    PLANES = WORD_SIZE * 8 + 1  # 32 data planes + sign plane
    DELTA_COUNT = WORDS - 1  # 15 deltas

    def compress(self, block: bytes) -> Optional[CompressedBlock]:
        self._check_block(block)
        words = struct.unpack(">16I", block)
        bits = format(words[0], "032b")  # base word stored raw
        zeros, ones = "0" * self.DELTA_COUNT, "1" * self.DELTA_COUNT
        for plane in self._to_planes(words):
            if plane == zeros:
                bits += "00"
            elif plane == ones:
                bits += "01"
            elif plane.count("1") == 1:
                bits += "10" + format(self.DELTA_COUNT - 1 - plane.index("1"), "04b")
            else:
                bits += "11" + plane
        if len(bits) >= BLOCK_SIZE * 8:
            return None
        writer = BitWriter()
        writer.write(int(bits, 2), len(bits))
        return CompressedBlock(self.name, len(bits), writer.getvalue())

    def _to_planes(self, words: Sequence[int]) -> List[str]:
        """Delta-transform then transpose into bit-planes.

        Deltas are 33-bit signed values stored sign+magnitude-free as
        two's complement in 33 bits; plane ``p`` collects bit ``p`` of each
        of the 15 deltas (delta 0 in the MSB of the plane).  Each plane
        is returned spelled as a 15-character bit string, plane 0 first.
        """
        rows = "".join([
            format((words[i + 1] - words[i]) & ((1 << 33) - 1), "033b")
            for i in range(self.DELTA_COUNT)
        ])
        # Row-major 33-character rows, so bit p's column starts at 32 - p.
        return [rows[start::33] for start in range(32, -1, -1)]

    def _from_planes(self, base: int, planes: List[int]) -> List[int]:
        deltas = [0] * self.DELTA_COUNT
        for plane_index, plane in enumerate(planes):
            for i in range(self.DELTA_COUNT):
                bit = (plane >> (self.DELTA_COUNT - 1 - i)) & 1
                deltas[i] |= bit << plane_index
        words = [base]
        for delta in deltas:
            if delta >= 1 << 32:
                delta -= 1 << 33
            words.append((words[-1] + delta) & 0xFFFF_FFFF)
        return words

    def _decode_plane(self, reader: BitReader) -> int:
        pattern = reader.read(2)
        if pattern == 0b00:
            return 0
        if pattern == 0b01:
            return (1 << self.DELTA_COUNT) - 1
        if pattern == 0b10:
            return 1 << reader.read(4)
        return reader.read(self.DELTA_COUNT)

    def decompress(self, compressed: CompressedBlock) -> bytes:
        reader = BitReader(compressed.payload)
        base = reader.read(32)
        planes = [self._decode_plane(reader) for _ in range(33)]
        words = self._from_planes(base, planes)
        out = bytearray()
        for word in words:
            out += word.to_bytes(self.WORD_SIZE, "big")
        return bytes(out)


class SelectiveBlockCompressor:
    """Picks the smallest output among all block algorithms per block.

    This is the paper's "block-level compression: smallest of BDI, BPC,
    CPACK, and Zero Block" (Figure 15) and the compressor we give the
    Compresso baseline.  A 3-bit header selects the algorithm (or raw).
    """

    HEADER_BITS = 3

    def __init__(self) -> None:
        self._compressors: List[BlockCompressor] = [
            ZeroBlockCompressor(),
            BDICompressor(),
            BPCCompressor(),
            CPackCompressor(),
        ]
        self._by_name = {c.name: c for c in self._compressors}

    def compress(self, block: bytes) -> CompressedBlock:
        """Compress one block; falls back to raw storage when nothing fits."""
        # An all-zero block's 1-bit flag beats every other encoder's
        # minimum (C-Pack >= 32 bits, BPC >= 98, BDI >= 139).
        best = self._compressors[0].compress(block)
        if best is None:
            for compressor in self._compressors[1:]:
                candidate = compressor.compress(block)
                if candidate is not None and (
                    best is None or candidate.size_bits < best.size_bits
                ):
                    best = candidate
        if best is None:
            return CompressedBlock(
                "raw", self.HEADER_BITS + BLOCK_SIZE * 8, bytes(block)
            )
        return CompressedBlock(
            best.algorithm, best.size_bits + self.HEADER_BITS, best.payload
        )

    def decompress(self, compressed: CompressedBlock) -> bytes:
        if compressed.algorithm == "raw":
            return compressed.payload
        inner = CompressedBlock(
            compressed.algorithm,
            compressed.size_bits - self.HEADER_BITS,
            compressed.payload,
        )
        return self._by_name[compressed.algorithm].decompress(inner)

    def compress_page(self, page: bytes) -> List[CompressedBlock]:
        """Compress a page block by block (Compresso's unit of work)."""
        if len(page) % BLOCK_SIZE:
            raise ValueError(f"page size {len(page)} is not a multiple of {BLOCK_SIZE}")
        return [
            self.compress(page[i : i + BLOCK_SIZE])
            for i in range(0, len(page), BLOCK_SIZE)
        ]

    def compressed_page_size(self, page: bytes) -> int:
        """Total compressed bytes of a page under block-level compression."""
        return sum(block.size_bytes for block in self.compress_page(page))

    def page_ratio(self, page: bytes) -> float:
        """Compression ratio (original / compressed) for one page."""
        return len(page) / max(1, self.compressed_page_size(page))
