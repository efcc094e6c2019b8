"""Differential tests: the codec hot loops against the original encoders.

``tests/oracles.py`` keeps the original byte-at-a-time ``BitWriter``,
the per-position hash-chain LZ matcher and the per-field BDI, BPC and
C-Pack encoders verbatim.  The production codecs must produce identical
tokens, bitstreams and ``size_bits`` on adversarial inputs: runs,
periodic data whose period straddles the window size, matches near
``MAX_MATCH``, short match chains, all-zero and near-zero blocks, and
blocks of based, dictionary-friendly or strided words.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.common.bits import BitWriter
from repro.common.units import BLOCK_SIZE, KIB
from repro.compression.block import (
    BDICompressor,
    BPCCompressor,
    CPackCompressor,
    SelectiveBlockCompressor,
)
from repro.compression.lz import MAX_MATCH, LZCompressor, LZConfig
from tests.oracles import (
    ReferenceBDICompressor,
    ReferenceBitWriter,
    ReferenceBPCCompressor,
    ReferenceCPackCompressor,
    ReferenceLZMatcher,
    ReferenceSelectiveBlockCompressor,
)

lz_configs = st.builds(
    LZConfig,
    window_size=st.sampled_from((256, 1 * KIB, 4 * KIB)),
    max_chain=st.sampled_from((1, 2, 4, 64)),
)


def assert_same_tokens(config: LZConfig, data: bytes) -> None:
    assert (LZCompressor(config).tokenize(data)
            == ReferenceLZMatcher(config).tokenize(data))


# ----------------------------------------------------------------------
# BitWriter
# ----------------------------------------------------------------------

writer_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(min_value=0, max_value=200),
                  st.integers(min_value=0)),
        st.tuples(st.just("bytes"), st.binary(max_size=24)),
        st.tuples(st.just("getvalue")),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(writer_ops)
def test_bit_writer_matches_reference(ops):
    writer, reference = BitWriter(), ReferenceBitWriter()
    for op in ops:
        if op[0] == "write":
            width = op[1]
            value = op[2] & ((1 << width) - 1)
            writer.write(value, width)
            reference.write(value, width)
        elif op[0] == "bytes":
            writer.write_bytes(op[1])
            reference.write_bytes(op[1])
        else:
            assert writer.getvalue() == reference.getvalue()
        assert writer.bit_length == reference.bit_length
    assert writer.getvalue() == reference.getvalue()


# ----------------------------------------------------------------------
# LZ matcher
# ----------------------------------------------------------------------


@st.composite
def runs(draw):
    """Runs of a few byte values, short and long."""
    pieces = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=1, max_value=300)),
        min_size=1, max_size=30))
    return b"".join(bytes([value]) * count for value, count in pieces)


@st.composite
def periodic(draw):
    """Random patterns repeated with a period near a swept window size,
    with a few bytes flipped."""
    window = draw(st.sampled_from((256, 1 * KIB, 4 * KIB)))
    period = window + draw(st.integers(min_value=-6, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    pattern = rng.randbytes(period)
    size = draw(st.integers(min_value=period, max_value=max(period * 3, 4 * KIB)))
    data = bytearray((pattern * (size // period + 1))[:size])
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        data[rng.randrange(size)] ^= 0xFF
    return bytes(data)


@st.composite
def near_max_match(draw):
    """Repeats whose matches end within a few bytes of ``MAX_MATCH``."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    head = rng.randbytes(draw(st.integers(min_value=0, max_value=40)))
    unit = rng.randbytes(draw(st.integers(min_value=1, max_value=300)))
    span = MAX_MATCH + draw(st.integers(min_value=-8, max_value=8))
    body = (unit * (span // len(unit) + 2))[: len(unit) + span]
    tail = rng.randbytes(draw(st.integers(min_value=0, max_value=40)))
    return head + body + tail


@settings(max_examples=60, deadline=None)
@given(lz_configs, runs())
def test_lz_tokens_match_reference_on_runs(config, data):
    assert_same_tokens(config, data)


@settings(max_examples=40, deadline=None)
@given(lz_configs, periodic())
def test_lz_tokens_match_reference_on_periodic_data(config, data):
    assert_same_tokens(config, data)


@settings(max_examples=30, deadline=None)
@given(lz_configs, near_max_match())
def test_lz_tokens_match_reference_near_max_match(config, data):
    assert_same_tokens(config, data)


@settings(max_examples=60, deadline=None)
@given(lz_configs,
       st.lists(st.sampled_from((b"ab", b"abcd", b"abce", b"\x00\x00", b"x")),
                max_size=400).map(b"".join))
def test_lz_tokens_match_reference_on_short_alphabets(config, data):
    """Many equal prefixes with diverging tails: long chains whose
    candidates tie, beat each other by one byte, or cannot win."""
    assert_same_tokens(config, data)


# ----------------------------------------------------------------------
# Block encoders
# ----------------------------------------------------------------------


@st.composite
def near_zero_blocks(draw):
    block = bytearray(BLOCK_SIZE)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        index = draw(st.integers(min_value=0, max_value=BLOCK_SIZE - 1))
        block[index] = draw(st.integers(min_value=0, max_value=255))
    return bytes(block)


#: Deltas on and around each BDI delta width's signed range.
_EDGE_DELTAS = (0, 1, -1, 127, -128, 128, -129, 32767, -32768, 32768,
                -32769, 2**31 - 1, -(2**31), 2**31)


@st.composite
def based_blocks(draw):
    """Values of one base size near a common base, or small, as BDI and
    BPC like them, with edge-of-range deltas."""
    size = draw(st.sampled_from((2, 4, 8)))
    count = BLOCK_SIZE // size
    top = 1 << (8 * size)
    base = draw(st.integers(min_value=0, max_value=top - 1))
    deltas = draw(st.lists(
        st.one_of(st.sampled_from(_EDGE_DELTAS),
                  st.integers(min_value=-300, max_value=300)),
        min_size=count, max_size=count))
    small = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    order = draw(st.sampled_from(("little", "big")))
    return b"".join(
        ((delta if is_small else base + delta) % top).to_bytes(size, order)
        for delta, is_small in zip(deltas, small)
    )


@st.composite
def dictionary_blocks(draw):
    """32-bit words drawn from a small pool with their low bytes varied,
    exercising C-Pack's full and partial dictionary matches."""
    pool = draw(st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                         min_size=1, max_size=20))
    words = []
    for _ in range(16):
        word = draw(st.sampled_from(pool))
        word ^= draw(st.sampled_from((0, 0, 0x1, 0xFF, 0xFF00, 0x10000)))
        words.append(word if draw(st.integers(0, 9)) else 0)
    return b"".join(word.to_bytes(4, "big") for word in words)


@st.composite
def strided_blocks(draw):
    """Arithmetic 32-bit word sequences, rising or falling, with a few
    words perturbed: BPC's uniform (all-zero, all-one, single-one) planes."""
    start = draw(st.integers(min_value=0, max_value=2**32 - 1))
    stride = draw(st.one_of(st.integers(min_value=-70000, max_value=70000),
                            st.sampled_from((1, -1, 1 << 16, -(1 << 31)))))
    words = [(start + i * stride) % 2**32 for i in range(16)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        index = draw(st.integers(min_value=0, max_value=15))
        words[index] ^= 1 << draw(st.integers(min_value=0, max_value=31))
    return b"".join(word.to_bytes(4, "big") for word in words)


blocks = st.one_of(
    near_zero_blocks(),
    based_blocks(),
    strided_blocks(),
    dictionary_blocks(),
    st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
)


@settings(max_examples=300, deadline=None)
@given(blocks)
def test_block_encoders_match_reference(block):
    pairs = (
        (BDICompressor(), ReferenceBDICompressor()),
        (BPCCompressor(), ReferenceBPCCompressor()),
        (CPackCompressor(), ReferenceCPackCompressor()),
    )
    for encoder, reference in pairs:
        encoded = encoder.compress(block)
        assert encoded == reference.compress(block)
        if encoded is not None:
            assert encoder.decompress(encoded) == block
    assert (SelectiveBlockCompressor().compress(block)
            == ReferenceSelectiveBlockCompressor().compress(block))
