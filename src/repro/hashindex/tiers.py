"""Index-tier registry: name → index factory, plus the env default.

Every :class:`~repro.retrieval.nodes.DataNode` builds its local index
through this registry, so the whole retrieval plane — nodes, the
sharded gallery, the engine, the attacker-facing service — switches
tiers with one knob:

* programmatically, via ``ServiceConfig(index_tier=...)`` /
  ``RetrievalEngine(..., index_tier=...)``;
* globally, via the ``REPRO_INDEX_TIER`` environment variable
  (``exact`` | ``hamming`` | ``ivfpq``).

Tiers:

``exact``
    Brute-force :class:`~repro.retrieval.index.FeatureIndex` (seed
    behaviour, the differential reference).
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
from repro.utils.envflags import env_choice

#: Name of the environment variable selecting the default tier.
INDEX_TIER_ENV = "REPRO_INDEX_TIER"

#: The tier used when nothing selects one (seed behaviour).
DEFAULT_TIER = "exact"


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


def default_index_tier() -> str:
    """``REPRO_INDEX_TIER`` when set (and valid), else ``"exact"``."""
    return env_choice(INDEX_TIER_ENV, tuple(INDEX_TIERS), DEFAULT_TIER)


__all__ = [
    "INDEX_TIER_ENV",
    "DEFAULT_TIER",
    "INDEX_TIERS",
    "resolve_index_tier",
    "default_index_tier",
]
