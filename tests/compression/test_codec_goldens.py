"""Golden digests of the bit-exact codecs' outputs.

The compression model feeds every simulated page size and latency, so
the codecs must not change one output bit when their hot loops are
rewritten.  These tests pin SHA-256 digests of:

- ``DeflateCodec.compress``: mode, payload and ``lz_stats``, at the
  default design point and at each non-default point the design-space
  explorer sweeps;
- each ``SelectiveBlockCompressor`` block: algorithm, ``size_bits`` and
  payload;
- the ``PageCompressionModel`` records of the four benchmark workloads.

Pages come from every content profile under two seeds, plus a few edge
pages (all-zero, random, periodic).  Regenerate the table with
``PYTHONPATH=src python tests/compression/test_codec_goldens.py`` only
when an output change is intended, and say why in the change log.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import astuple
from typing import Dict, List

import pytest

from repro.common.units import KIB, PAGE_SIZE
from repro.compression.block import SelectiveBlockCompressor
from repro.compression.deflate import DeflateCodec, DeflateConfig
from repro.compression.huffman import ReducedTreeConfig
from repro.compression.lz import LZConfig
from repro.core.compmodel import PageCompressionModel
from repro.workloads.content import CONTENT_PROFILES, ContentSynthesizer
from repro.workloads.suite import workload_by_name

SEEDS = (1, 1009)
VPNS = (0, 7)

DEFLATE_CONFIGS: Dict[str, DeflateConfig] = {
    "default": DeflateConfig(),
    "window-256": DeflateConfig(lz=LZConfig(window_size=256)),
    "window-4k": DeflateConfig(lz=LZConfig(window_size=4 * KIB)),
    "chain-4": DeflateConfig(lz=LZConfig(max_chain=4)),
    "tree-8": DeflateConfig(huffman=ReducedTreeConfig(tree_size=8)),
    "sample-half": DeflateConfig(
        huffman=ReducedTreeConfig(frequency_sample_fraction=0.5)),
    "no-skip": DeflateConfig(dynamic_huffman_skip=False),
}

MODEL_WORKLOADS = ("canneal", "pageRank", "omnetpp", "mcf")
MODEL_SEED = 1
MODEL_SAMPLES = 24


def _edge_pages() -> List[bytes]:
    rng = random.Random(0x5EED)
    text = b"memory compression for capacity, translation optimized. "
    return [
        bytes(PAGE_SIZE),
        rng.randbytes(PAGE_SIZE),
        (text * (PAGE_SIZE // len(text) + 1))[:PAGE_SIZE],
        bytes([0xAA]) * (PAGE_SIZE - 1) + b"\x01",
        # Periods between the swept window sizes (256 B, 1 KB, 4 KB).
        (rng.randbytes(700) * 6)[:PAGE_SIZE],
        (rng.randbytes(2000) * 3)[:PAGE_SIZE],
    ]


def corpus(name: str) -> List[bytes]:
    """The pages of one golden corpus: a content profile or ``edge``."""
    if name == "edge":
        return _edge_pages()
    return [ContentSynthesizer(name, seed).page(vpn)
            for seed in SEEDS for vpn in VPNS]


CORPORA = sorted(CONTENT_PROFILES) + ["edge"]


def _field(digest, value) -> None:
    data = value if isinstance(value, bytes) else repr(value).encode()
    digest.update(len(data).to_bytes(4, "little"))
    digest.update(data)


def deflate_digest(config_name: str, corpus_name: str) -> str:
    codec = DeflateCodec(DEFLATE_CONFIGS[config_name])
    digest = hashlib.sha256()
    for page in corpus(corpus_name):
        compressed = codec.compress(page)
        _field(digest, compressed.mode)
        _field(digest, compressed.payload)
        _field(digest, astuple(compressed.lz_stats))
    return digest.hexdigest()


def block_digest(corpus_name: str) -> str:
    selector = SelectiveBlockCompressor()
    digest = hashlib.sha256()
    for page in corpus(corpus_name):
        for block in selector.compress_page(page):
            _field(digest, block.algorithm)
            _field(digest, block.size_bits)
            _field(digest, block.payload)
    return digest.hexdigest()


def model_digest(workload: str) -> str:
    content = workload_by_name(workload, seed=MODEL_SEED, scale=0.01).content
    model = PageCompressionModel(content, sample_pages=MODEL_SAMPLES,
                                 seed=MODEL_SEED)
    digest = hashlib.sha256()
    # The Knuth hash maps vpn v to record v % 24, so this visits each once.
    for vpn in range(MODEL_SAMPLES):
        _field(digest, model.record_for(vpn))
    return digest.hexdigest()


def compute_goldens() -> Dict[str, str]:
    goldens = {}
    for config_name in DEFLATE_CONFIGS:
        for corpus_name in CORPORA:
            goldens[f"deflate/{config_name}/{corpus_name}"] = deflate_digest(
                config_name, corpus_name)
    for corpus_name in CORPORA:
        goldens[f"block/{corpus_name}"] = block_digest(corpus_name)
    for workload in MODEL_WORKLOADS:
        goldens[f"model/{workload}"] = model_digest(workload)
    return goldens


GOLDENS: Dict[str, str] = {
    'deflate/default/canneal': 'ed38a567fa3d7478a031bafb2a580eb423e8c051e9309b2b0374c59d6c6e941f',
    'deflate/default/graph': '9e4eccd96812c8588d8503a986081104dbbfe80164ae76d778ad65571a6ed2b3',
    'deflate/default/mcf': '10a4c3303cd4ae5aa3babb3412021fbf2fe87474c74303d6e1cae10c799434c5',
    'deflate/default/omnetpp': '88ddbd481989ca9458685c47a2b905aef018841f58182efc28e1e93569c6a0b9',
    'deflate/default/rocksdb': 'c7bf7424d1382808e54a3f5cdc470ba649b2489763a0e9038141d2c924b5d460',
    'deflate/default/small': '7d6b813d61860ff230ff366146deb8a8d6ff3f6ad1bd9e34ead608e5fe23a4f9',
    'deflate/default/stream': '6418723d3c71b548f2c53033fd52b437c7444eb5d1542352c919012d881e282c',
    'deflate/default/edge': 'c12e0336426b4e55cb723d67bf46050839b0e724da2c7e6d2ec0461f9d792981',
    'deflate/window-256/canneal': 'b35bde50cc99169d5669aecaa30a1bcc2fa9ac08b600bdf018917b1aa4861211',
    'deflate/window-256/graph': 'e96c159cdb8bfbff02e49f281b4c459369a118662fe4b900f64b94284b298d20',
    'deflate/window-256/mcf': 'a4e3debc92163487271b463f454c6b66ccaeac7a2fd07bf6f3a4755e31ce4583',
    'deflate/window-256/omnetpp': '2dd0b54ca124bc22a6bb5b892d266afcc97cf3d4e093f3ea125bdd4534e15b2a',
    'deflate/window-256/rocksdb': 'dd7082e32f7ad900db1bf34ff49ecf8b001547e4f2d7838322672deaf2cb3933',
    'deflate/window-256/small': '3b46b9a6ff1275802f547e2f60370c220c07b639e62e624b24a2fc26cb18fc97',
    'deflate/window-256/stream': '5449f32a6b846d2029c09f82f8b5af4d8d60c83dd530f5cff5123d7ced44597b',
    'deflate/window-256/edge': '9e2f037b1c938ddd5b49912c33642368290a70a475b470a57e2809050d2bd754',
    'deflate/window-4k/canneal': '28139188bbebc84a4517be913900f6d24f5c2f5e0b4841411897b97e3dd1d0fe',
    'deflate/window-4k/graph': 'b31667fe2b811916de760bbbee99366585b7fdd31a739f992f76d126c232c189',
    'deflate/window-4k/mcf': '1b3edf19c7c00cf049dc410a5eb5e3c49e959e24854cbf3cf800615ea21216a8',
    'deflate/window-4k/omnetpp': '085c0ed2c9b24ee96bc15df4f58ef91c3d27f09a37e8302407e56acddd13a8cb',
    'deflate/window-4k/rocksdb': '473fc61f3362df19d6bd37554826a5fd395ed398713e582dbd7b8c69ed092591',
    'deflate/window-4k/small': '6f9e3f264bbad62d5b8bf5807c21667681d886fe90335ced395c5f4f15dca820',
    'deflate/window-4k/stream': '2cf9e64d3bd425562bcb05197d3dc31a2b2a8eca528e879f8297dd00f5cfa61f',
    'deflate/window-4k/edge': '35acfbf85393243d3b476e07f1c31ecd55eb8e1b532fa80c81af61dbbd691eff',
    'deflate/chain-4/canneal': '3c04ccb9d11a57f957362bdb13e1afdf3664e95877151750e2077510a1bce26e',
    'deflate/chain-4/graph': '4b9f2ef80d529426bb8accaed657c65cbcfc7f506c9d6dec382e91952425bdd2',
    'deflate/chain-4/mcf': '4f55bbe2b90b97e2e144dfca1e5143f9d51cfd2e1430527f57f207ca2b14127d',
    'deflate/chain-4/omnetpp': '964389a55d4cdc88494a6e9430d1113b164b92420144b1692df74c7559bcf7f7',
    'deflate/chain-4/rocksdb': 'a02c6de22d1cf8b29835e55b6506aa09e84705e1c63d3f28f2fbda7a12bc4084',
    'deflate/chain-4/small': 'c41baaf7efe8a8e1b945ab4eed453f2220b4996eace9829014db3e89580926c4',
    'deflate/chain-4/stream': 'fa1a51f8b3923ab044620fb21c2c6c1e1cd89600a14866f0041fdc2a3338183c',
    'deflate/chain-4/edge': 'c12e0336426b4e55cb723d67bf46050839b0e724da2c7e6d2ec0461f9d792981',
    'deflate/tree-8/canneal': 'b847c338133720743711fcbf4c5d012a8233f44b69f970d0d713f5def22ad9da',
    'deflate/tree-8/graph': 'd0684bf3137e717f207e66efa1e3bb47f4be6bd84f6ed503a8875def0074a313',
    'deflate/tree-8/mcf': '7a379233e0290460dce2794203df40dd014f703e05b98353755608df17288146',
    'deflate/tree-8/omnetpp': 'dd7f4e348d462f649e4fe0a98c155c6f9be0629ba03284d73bdd5f965676900b',
    'deflate/tree-8/rocksdb': '26232b559a44fb5ce225cff9e235117862bc5aa3aaedd44c356c6399b6d9c6a3',
    'deflate/tree-8/small': 'e10fbc7d3d6d7400e9cd768308985bea4ed767c1195705c71d6d5f28d3c26e90',
    'deflate/tree-8/stream': '4221fe058abf342f4806c117504460b5fc6a345a46555b9eb87a1636c4bd5a87',
    'deflate/tree-8/edge': '69e48dfc6f8ebc4c21032bbbb55d36a459922ac21163a9c2339c40586db43533',
    'deflate/sample-half/canneal': '75b24140d79fd8e0260fdede9b6d1a0a50b303c8183d687f849d200dec67a362',
    'deflate/sample-half/graph': '0e9f4ae7b6c6012dcefec598187058cea9217517bc517d5a4883e547237660be',
    'deflate/sample-half/mcf': 'e54991edaab64c0472805338dcb9c01f8a9a286cd8821fd988a17119cb3dd4cb',
    'deflate/sample-half/omnetpp': 'b4687f533453345bafc4abf1bcdcf0fbe3a326b47ed5970fb5db164d40034558',
    'deflate/sample-half/rocksdb': 'ea1e17f7bdff27338bc1ffd1b622e39c91e4ca128d824c7961b0553897a9f79c',
    'deflate/sample-half/small': '613380afacfacae0cc823df3cb6ff0a57739734e276267f819e9ed0ff0956a05',
    'deflate/sample-half/stream': '16a0b73fb6db3baa8019f56a151d78753c7f088392a5fb1f76825a75b8949086',
    'deflate/sample-half/edge': 'aad1786037b0d4589b2c1e6d4b6eb9a46060be4dc54972539174b10415c3c565',
    'deflate/no-skip/canneal': 'ed38a567fa3d7478a031bafb2a580eb423e8c051e9309b2b0374c59d6c6e941f',
    'deflate/no-skip/graph': '9e4eccd96812c8588d8503a986081104dbbfe80164ae76d778ad65571a6ed2b3',
    'deflate/no-skip/mcf': '10a4c3303cd4ae5aa3babb3412021fbf2fe87474c74303d6e1cae10c799434c5',
    'deflate/no-skip/omnetpp': '88ddbd481989ca9458685c47a2b905aef018841f58182efc28e1e93569c6a0b9',
    'deflate/no-skip/rocksdb': 'c7bf7424d1382808e54a3f5cdc470ba649b2489763a0e9038141d2c924b5d460',
    'deflate/no-skip/small': '7d6b813d61860ff230ff366146deb8a8d6ff3f6ad1bd9e34ead608e5fe23a4f9',
    'deflate/no-skip/stream': '6418723d3c71b548f2c53033fd52b437c7444eb5d1542352c919012d881e282c',
    'deflate/no-skip/edge': 'fbbcd21d37a70d6a3cc1a84633b2b6c391b18390a33f4dcafa9aa3396861ebb6',
    'block/canneal': '3de7719b781df0828afd9be629a723058e6117ea00c2102fd69dc508c63f56fa',
    'block/graph': 'd899233457a168e2ac0dd4009443f134ca364daf0da34b1b55c4e544de6d44bb',
    'block/mcf': 'e9482608d99cf8fdcdf2a6529aae18cd5da2a4937e24d6cc5b321d9a230952db',
    'block/omnetpp': '5882963cc7a9cc060efc8d8cd41558810c51766d27914ef0207ce044bda49c84',
    'block/rocksdb': '68b062d6ecce338e10da9d77983066d29ee116274142308aee2d1e91579f503c',
    'block/small': '458f518d111e45a699a75ff9b615dc7f15b557054cd8a611de788f3d828999a8',
    'block/stream': 'f9a3624dc8c4ebd6cf327a3c8c5669b4be104dee1aed90519c458c88e464d442',
    'block/edge': 'b371803e060126e74ad5a412ec1c09118006b4b65b214325a5c5c4b6abdde376',
    'model/canneal': '5807d91e006a4e24f5cd7baad55f8bc12c43e624684c6dcc045d0dc1ac6ce993',
    'model/pageRank': '5d426eb7e863cc1e097d0d166eeb6444961573be9a0420befef433fa6e65246d',
    'model/omnetpp': '64ffdf5171f5f55545a6f9831c1785b119b314e123d05abccc7c8ffdf475334b',
    'model/mcf': '167181d2b44dc9dd33c3ec4ce5dd5a57b46f10be49153e4cf9b3499f45a65409',
}


@pytest.mark.parametrize("config_name", sorted(DEFLATE_CONFIGS))
@pytest.mark.parametrize("corpus_name", CORPORA)
def test_deflate_output_is_pinned(config_name, corpus_name):
    assert (deflate_digest(config_name, corpus_name)
            == GOLDENS[f"deflate/{config_name}/{corpus_name}"])


@pytest.mark.parametrize("corpus_name", CORPORA)
def test_block_output_is_pinned(corpus_name):
    assert block_digest(corpus_name) == GOLDENS[f"block/{corpus_name}"]


@pytest.mark.parametrize("workload", MODEL_WORKLOADS)
def test_model_records_are_pinned(workload):
    assert model_digest(workload) == GOLDENS[f"model/{workload}"]


if __name__ == "__main__":
    for key, value in compute_goldens().items():
        print(f"    {key!r}: {value!r},")
