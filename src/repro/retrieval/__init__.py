"""DNN-based video retrieval system (paper Figure 1).

A :class:`~repro.retrieval.engine.RetrievalEngine` embeds a query video
with a trained :class:`~repro.models.FeatureExtractor` and searches a
gallery of features sharded across simulated distributed
:class:`~repro.retrieval.nodes.DataNode`s.  Attackers interact only with
the :class:`~repro.retrieval.service.RetrievalService` facade, which
exposes the retrieval list ``R^m(v)`` and nothing else (black-box threat
model), while counting queries.
"""

from repro.retrieval.similarity import (
    negative_l2,
    cosine,
    SIMILARITIES,
    BATCH_SIMILARITIES,
    batched_similarity,
    cosine_batch,
    create_similarity,
    hamming_batch,
    negative_l2_batch,
)
from repro.errors import (
    DeadlineExceeded,
    NodeDownError,
    QueryBudgetExceeded,
    RetrievalError,
    RetrievalUnavailable,
)
from repro.retrieval.lists import RetrievalEntry, RetrievalList
from repro.retrieval.protocol import Index, ScanIndex
from repro.retrieval.index import FeatureIndex
from repro.retrieval.config import Preprocessor, ServiceConfig
from repro.retrieval.nodes import DataNode, ShardedGallery
from repro.retrieval.placement import ConsistentHashRing, stable_hash
from repro.retrieval.snapshot import GallerySnapshot
from repro.retrieval.engine import RetrievalEngine
from repro.retrieval.service import RetrievalService

__all__ = [
    "negative_l2",
    "cosine",
    "SIMILARITIES",
    "BATCH_SIMILARITIES",
    "batched_similarity",
    "cosine_batch",
    "hamming_batch",
    "negative_l2_batch",
    "create_similarity",
    "RetrievalEntry",
    "RetrievalList",
    "Index",
    "ScanIndex",
    "FeatureIndex",
    "DataNode",
    "ShardedGallery",
    "ConsistentHashRing",
    "stable_hash",
    "GallerySnapshot",
    "NodeDownError",
    "DeadlineExceeded",
    "RetrievalError",
    "RetrievalUnavailable",
    "RetrievalEngine",
    "RetrievalService",
    "ServiceConfig",
    "Preprocessor",
    "QueryBudgetExceeded",
]
