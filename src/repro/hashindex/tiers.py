"""Index-tier registry: name → index factory.

Every :class:`~repro.retrieval.nodes.DataNode` builds its local index
through this registry, so the whole retrieval plane — nodes, the
sharded gallery, the engine, the attacker-facing service — switches
tiers with one knob: ``ServiceConfig(index_tier=...)`` /
``RetrievalEngine(..., index_tier=...)`` (``exact`` | ``hamming`` |
``ivfpq``).

Tiers:

``exact``
    Brute-force :class:`~repro.retrieval.index.FeatureIndex` (the
    default, and the differential reference).
``hamming``
    :class:`~repro.hashindex.binary.BinaryHashIndex` — packed binary
    codes, popcount top-k, exact rerank.
``ivfpq``
    :class:`~repro.hashindex.ivfpq.IVFPQIndex` — coarse cells + product
    quantization with ADC tables, exact rerank.
"""

from __future__ import annotations

from typing import Callable

from repro.hashindex.binary import BinaryHashIndex
from repro.hashindex.ivfpq import IVFPQIndex
from repro.retrieval.index import FeatureIndex
from repro.retrieval.similarity import SimilarityFn


def _exact(similarity: SimilarityFn) -> FeatureIndex:
    return FeatureIndex(similarity)


def _hamming(similarity: SimilarityFn) -> BinaryHashIndex:
    return BinaryHashIndex(similarity=similarity, rng=0)


def _ivfpq(similarity: SimilarityFn) -> IVFPQIndex:
    return IVFPQIndex(similarity=similarity, rng=0)


#: tier name → ``factory(similarity) -> Index``.  Factories are seeded
#: so two nodes built for the same tier behave identically run to run.
INDEX_TIERS: dict[str, Callable[[SimilarityFn], object]] = {
    "exact": _exact,
    "hamming": _hamming,
    "ivfpq": _ivfpq,
}


def resolve_index_tier(name: str) -> Callable[[SimilarityFn], object]:
    """The index factory registered under ``name`` (case-insensitive)."""
    key = str(name).strip().lower()
    if key not in INDEX_TIERS:
        raise KeyError(
            f"unknown index tier {name!r}; available: {sorted(INDEX_TIERS)}")
    return INDEX_TIERS[key]


__all__ = [
    "INDEX_TIERS",
    "resolve_index_tier",
]
