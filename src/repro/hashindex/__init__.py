"""Compressed index tier: binary Hamming codes and IVF-PQ with rerank.

Production video retrieval over millions of rows does not brute-force
float features; it scans compressed codes and rescores a small
candidate set exactly.  This package provides that tier:

* :mod:`repro.hashindex.codes` — LSH / ITQ binary coders, uint64 bit
  packing, and the chunked popcount Hamming kernel;
* :class:`BinaryHashIndex` — packed-code Hamming top-k + exact rerank;
* :class:`IVFPQIndex` — coarse cells + product quantization with
  asymmetric-distance tables + exact rerank;
* :class:`MemmapStore` — ``np.memmap`` payload spill so a data node
  holds 10^6 rows without resident RAM;
* :mod:`repro.hashindex.tiers` — the index-tier registry that
  drops any tier into ``DataNode`` / ``ShardedGallery`` /
  ``RetrievalService``.

Both indexes satisfy :class:`repro.retrieval.protocol.Index` and return
exact similarity scores (the rerank contract), so the compressed tier
stays differential-testable against ``FeatureIndex`` — the
``hashindex.compressed_vs_exact`` qa oracle holds recall@k above a
floor on seeded galleries.
"""

from repro.hashindex.codes import (
    CODERS,
    ITQCoder,
    RandomProjectionCoder,
    create_coder,
    hamming_distances,
    hamming_topk,
    pack_bits,
    popcount,
    unpack_bits,
    words_for_bits,
)
from repro.hashindex.base import CompressedIndex
from repro.hashindex.binary import BinaryHashIndex
from repro.hashindex.ivfpq import IVFPQIndex, ProductQuantizer
from repro.hashindex.compaction import DEFAULT_COMPACTION, CompactionPolicy
from repro.hashindex.store import MemmapStore, total_mapped_bytes
from repro.hashindex.tiers import (
    INDEX_TIERS,
    resolve_index_tier,
)

__all__ = [
    "BinaryHashIndex",
    "CompactionPolicy",
    "CompressedIndex",
    "DEFAULT_COMPACTION",
    "IVFPQIndex",
    "ProductQuantizer",
    "MemmapStore",
    "total_mapped_bytes",
    "RandomProjectionCoder",
    "ITQCoder",
    "CODERS",
    "create_coder",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "words_for_bits",
    "hamming_distances",
    "hamming_topk",
    "INDEX_TIERS",
    "resolve_index_tier",
]
