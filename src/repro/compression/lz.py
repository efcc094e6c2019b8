"""LZ77 stage of the memory-specialized Deflate.

The paper's ASIC front-end is a sliding-window matcher ("1KB CAM") with a
greedy match-selection policy (Section V-B4) and -- unlike RFC 1951 -- a
space-efficient 256-symbol output alphabet, "like how LZ is used today when
it is standalone".  We therefore encode LZ output in an LZ4-style byte
format:

    [token byte][literals...][offset lo][offset hi][len ext...] ...

- token high nibble: literal-run length (15 = extended by 255-run bytes),
- token low nibble: match length - MIN_MATCH (15 = extended),
- offset: 16-bit little-endian distance (1 .. window size),
- a block may end with a literal-only sequence (no offset follows when the
  output is already complete).

Every output symbol is a plain byte, so the Huffman stage downstream can
frequency-count and code them directly.

The matcher is a hash-chain over 4-byte prefixes restricted to the
configured window -- functionally what a hardware CAM of that size finds.
Chains are keyed by the prefix bytes themselves, so the tokens never
depend on Python's per-process hash salt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.units import KIB

#: Shortest match worth encoding: a match costs >= 2 offset bytes, so
#: 4 input bytes is the break-even point (same choice LZ4 makes).
MIN_MATCH = 4

#: Longest match encodable without pathological extension chains.
MAX_MATCH = 4096


@dataclass(frozen=True)
class LZConfig:
    """Tunable parameters mirroring the HDL's knobs.

    ``window_size`` is the CAM size the paper sweeps (256 B - 32 KB;
    1 KB is the chosen design point).  ``max_chain`` bounds match-search
    effort; hardware compares against the whole CAM each cycle, so a large
    default keeps parity with the ASIC's match quality.
    """

    window_size: int = 1 * KIB
    max_chain: int = 64

    def __post_init__(self) -> None:
        if self.window_size <= 0 or self.window_size > 64 * KIB:
            raise ValueError(
                f"window_size must be in (0, 64 KiB], got {self.window_size}"
            )
        if self.max_chain <= 0:
            raise ValueError(f"max_chain must be positive, got {self.max_chain}")


@dataclass(frozen=True)
class LZToken:
    """One LZ sequence: a run of literals optionally followed by a match."""

    literals: bytes
    match_length: int = 0  # 0 means "no match" (only legal for the last token)
    match_offset: int = 0

    def __post_init__(self) -> None:
        if self.match_length and not (MIN_MATCH <= self.match_length <= MAX_MATCH):
            raise ValueError(f"match length {self.match_length} out of range")
        if self.match_length and self.match_offset <= 0:
            raise ValueError("matches require a positive offset")


@dataclass
class LZStats:
    """Aggregate statistics of one compression, for the timing model."""

    input_bytes: int = 0
    output_bytes: int = 0
    literal_bytes: int = 0
    match_count: int = 0
    matched_bytes: int = 0
    token_count: int = 0
    match_lengths: List[int] = field(default_factory=list)

    @classmethod
    def from_tokens(
        cls, tokens: List[LZToken], input_bytes: int, output_bytes: int
    ) -> "LZStats":
        """Count the tokens of one compression (``output_bytes`` is the
        length of their serialized stream)."""
        match_lengths = [token.match_length for token in tokens if token.match_length]
        return cls(
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            literal_bytes=sum(len(token.literals) for token in tokens),
            match_count=len(match_lengths),
            matched_bytes=sum(match_lengths),
            token_count=len(tokens),
            match_lengths=match_lengths,
        )


class LZCompressor:
    """Sliding-window LZ with greedy match selection."""

    def __init__(self, config: LZConfig = LZConfig()) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Tokenization (the matcher proper)
    # ------------------------------------------------------------------

    def tokenize(self, data: bytes) -> List[LZToken]:
        """Split ``data`` into LZ sequences using greedy matching.

        Each position takes the longest match among the ``max_chain``
        most recent in-window positions sharing its 4-byte prefix; ties
        go to the nearest.  A candidate is compared only when it can
        beat the best so far (its byte at the best length must match,
        zlib's trick), and the search stops once the best reaches the
        longest length still possible.
        """
        window = self.config.window_size
        max_chain = self.config.max_chain
        tokens: List[LZToken] = []
        length = len(data)
        last_key = length - MIN_MATCH  # last position with a full prefix
        head: Dict[bytes, int] = {}  # 4-byte prefix -> most recent position
        prev = [-1] * length  # position -> previous position w/ same prefix
        literal_start = 0
        position = 0
        while position < length:
            best_length = 0
            if position <= last_key:
                key = data[position : position + MIN_MATCH]
                candidate = head.get(key, -1)
                prev[position] = candidate
                head[key] = position
                floor = position - window
                limit = min(length - position, MAX_MATCH)
                chain = 0
                while candidate >= 0 and candidate >= floor and chain < max_chain:
                    if data[candidate + best_length] == data[position + best_length]:
                        match_length = self._match_length(
                            data, candidate, position, limit)
                        if match_length > best_length:
                            best_length = match_length
                            best_offset = position - candidate
                            if match_length == limit:
                                break
                    candidate = prev[candidate]
                    chain += 1
            if best_length:
                tokens.append(
                    LZToken(
                        literals=data[literal_start:position],
                        match_length=best_length,
                        match_offset=best_offset,
                    )
                )
                for step in range(position + 1,
                                  min(position + best_length, last_key + 1)):
                    key = data[step : step + MIN_MATCH]
                    prev[step] = head.get(key, -1)
                    head[key] = step
                position += best_length
                literal_start = position
            else:
                position += 1
        if literal_start < length or not tokens:
            tokens.append(LZToken(literals=data[literal_start:]))
        return tokens

    @staticmethod
    def _match_length(data: bytes, candidate: int, position: int, limit: int) -> int:
        """Length of the match at ``candidate``, whose first ``MIN_MATCH``
        bytes equal those at ``position``, capped at ``limit``."""
        length = MIN_MATCH
        while (length + 8 <= limit
               and data[candidate + length : candidate + length + 8]
               == data[position + length : position + length + 8]):
            length += 8
        while length < limit and data[candidate + length] == data[position + length]:
            length += 1
        return length

    # ------------------------------------------------------------------
    # Byte-stream serialization (the 256-symbol alphabet)
    # ------------------------------------------------------------------

    def compress(self, data: bytes) -> bytes:
        """Compress ``data`` to the LZ4-style byte stream."""
        return self.serialize(self.tokenize(data))

    def serialize(self, tokens: List[LZToken]) -> bytes:
        out = bytearray()
        for token in tokens:
            literal_length = len(token.literals)
            match_code = (token.match_length - MIN_MATCH) if token.match_length else 0
            token_byte = (min(literal_length, 15) << 4) | min(match_code, 15)
            out.append(token_byte)
            remaining = literal_length - 15
            while remaining >= 0:
                out.append(min(remaining, 255))
                remaining -= 255
            out += token.literals
            if token.match_length:
                out.append(token.match_offset & 0xFF)
                out.append((token.match_offset >> 8) & 0xFF)
                remaining = match_code - 15
                while remaining >= 0:
                    out.append(min(remaining, 255))
                    remaining -= 255
        return bytes(out)

    def decompress(self, stream: bytes, original_size: int) -> bytes:
        """Inverse of :meth:`compress`."""

        def take(count: int) -> bytes:
            nonlocal position
            if position + count > len(stream):
                raise ValueError("LZ stream truncated")
            chunk = stream[position : position + count]
            position += count
            return chunk

        out = bytearray()
        position = 0
        while len(out) < original_size:
            token_byte = take(1)[0]
            literal_length = token_byte >> 4
            match_code = token_byte & 0x0F
            if literal_length == 15:
                while True:
                    extra = take(1)[0]
                    literal_length += extra
                    if extra != 255:
                        break
            out += take(literal_length)
            if len(out) >= original_size:
                break
            offset_bytes = take(2)
            offset = offset_bytes[0] | (offset_bytes[1] << 8)
            match_length = match_code + MIN_MATCH
            if match_code == 15:
                while True:
                    extra = take(1)[0]
                    match_length += extra
                    if extra != 255:
                        break
            if offset <= 0 or offset > len(out):
                raise ValueError(f"invalid LZ offset {offset} at output {len(out)}")
            start = len(out) - offset
            for i in range(match_length):  # byte-wise: matches may overlap
                out.append(out[start + i])
        if len(out) != original_size:
            raise ValueError(
                f"LZ decompression produced {len(out)} bytes, expected {original_size}"
            )
        return bytes(out)

    # ------------------------------------------------------------------
    # Statistics for the pipeline timing model
    # ------------------------------------------------------------------

    def stats(self, data: bytes) -> LZStats:
        """Compress and report the counts the cycle model consumes."""
        tokens = self.tokenize(data)
        return LZStats.from_tokens(tokens, len(data), len(self.serialize(tokens)))
