"""White-box retrieval engine: feature extractor + sharded gallery."""

from __future__ import annotations

import numpy as np

from repro.errors import RetrievalUnavailable
from repro.models.feature_extractor import FeatureExtractor
from repro.perf.cache import DEFAULT_CAPACITY, EmbeddingCache, frame_keys
from repro.resilience.config import ResilienceConfig
from repro.retrieval.lists import RetrievalList
from repro.retrieval.nodes import ShardedGallery
from repro.retrieval.similarity import SimilarityFn, create_similarity, negative_l2
from repro.video.types import Video


class RetrievalEngine:
    """``R(·)``: embeds queries and searches the distributed gallery.

    This is the *owner-side* view of the system — it exposes the model.
    Attackers must use :class:`~repro.retrieval.service.RetrievalService`.

    Query embeddings flow through a content-hash cache at frame
    granularity (:class:`~repro.perf.cache.EmbeddingCache`):
    re-querying unchanged pixels skips the model forward, and on a
    frame-separable victim (ResNet+LSTM) a clip that differs from
    earlier queries in a few frames — an attack's ±ε candidate —
    re-encodes only those frames and resumes the LSTM at the first of
    them.  Either way the features are bit-identical to a full forward
    over the same misses.  The cache assumes the extractor's weights
    are frozen for the engine's lifetime (true for every victim service
    here); call :meth:`clear_embedding_cache` after mutating them.
    ``cache_size=0`` disables caching and runs the full forward.
    """

    def __init__(self, extractor: FeatureExtractor,
                 similarity: SimilarityFn | str = negative_l2,
                 num_nodes: int = 4, cache_size: int = DEFAULT_CAPACITY,
                 resilience: ResilienceConfig | None = None,
                 index_tier: str = "exact",
                 placement: str = "round-robin") -> None:
        if isinstance(similarity, str):
            similarity = create_similarity(similarity)
        self.extractor = extractor
        self.gallery = ShardedGallery(num_nodes=num_nodes,
                                      similarity=similarity,
                                      resilience=resilience,
                                      index_tier=index_tier,
                                      placement=placement)
        self.embedding_cache = EmbeddingCache(cache_size)

    def configure_resilience(self, resilience: ResilienceConfig | None) -> None:
        """Install (or clear) a resilience config on the gallery.

        Replication is a placement property, so changing it requires an
        empty gallery; runtime knobs (retry, breaker, deadlines, hedging)
        can change at any time.
        """
        self.gallery.set_resilience(resilience)

    def configure_index_tier(self, tier: str) -> None:
        """Switch the gallery's per-node index tier (see
        :mod:`repro.hashindex.tiers`); stored rows are re-ingested."""
        self.gallery.set_index_tier(tier)

    @property
    def index_tier(self) -> str:
        return self.gallery.index_tier

    @property
    def resilience(self) -> ResilienceConfig | None:
        return self.gallery.resilience

    # -------------------------------------------------------------- #
    # Embedding (cached)
    # -------------------------------------------------------------- #
    def embed_queries(self, videos: list[Video],
                      batch_size: int = 16) -> np.ndarray:
        """Embed videos through the cache; misses share one embed call."""
        if not videos:
            return np.zeros((0, self.extractor.feature_dim))
        cache = self.embedding_cache
        if not cache.enabled:
            return self.extractor.embed_videos(videos, batch_size=batch_size)
        keys = [frame_keys(video.pixels) for video in videos]
        features = cache.lookup(keys)
        miss_rows = [i for i, feature in enumerate(features) if feature is None]
        if miss_rows:
            fresh = self.extractor.embed_videos(
                [videos[i] for i in miss_rows], batch_size=batch_size,
                cache=cache, keys=[keys[i] for i in miss_rows])
            for row, feature in zip(miss_rows, fresh):
                features[row] = feature
        return np.stack(features)

    def clear_embedding_cache(self) -> None:
        """Drop cached embeddings (required after changing model weights)."""
        self.embedding_cache.clear()

    # -------------------------------------------------------------- #
    # Gallery management
    # -------------------------------------------------------------- #
    def index_videos(self, videos: list[Video], batch_size: int = 16) -> None:
        """Embed and insert videos into the gallery."""
        features = self.embed_queries(videos, batch_size=batch_size)
        self.gallery.add_batch(
            [v.video_id for v in videos], [v.label for v in videos], features
        )

    @property
    def gallery_size(self) -> int:
        return len(self.gallery)

    # -------------------------------------------------------------- #
    # Online gallery mutation (churn)
    # -------------------------------------------------------------- #
    def add_video(self, video: Video) -> None:
        """Embed and insert one new video into the live gallery."""
        feature = self.embed_queries([video])[0]
        self.gallery.add(video.video_id, video.label, feature)

    def remove_video(self, video_id: str) -> None:
        """Tombstone a live gallery video."""
        self.gallery.delete(video_id)

    def reembed_video(self, video: Video) -> None:
        """Re-embed a live gallery video (e.g. after content edits)."""
        feature = self.embed_queries([video])[0]
        self.gallery.reembed(video.video_id, video.label, feature)

    # -------------------------------------------------------------- #
    # Retrieval
    # -------------------------------------------------------------- #
    def retrieve(self, video: Video, m: int) -> RetrievalList:
        """Return ``R^m(v)``: the ``m`` most similar gallery videos."""
        return self.retrieve_batch([video], m)[0]

    def retrieve_batch(self, videos: list[Video], m: int,
                       snapshots: list | None = None,
                       query_ids=None) -> list[RetrievalList]:
        """``R^m`` for every video, embedded in one forward batch.

        Identical results to per-video :meth:`retrieve` calls made at the
        gallery versions the queries were admitted under.  ``snapshots``
        pins each query to its
        :class:`~repro.retrieval.snapshot.GallerySnapshot` (one per
        video; ``None`` reads the current version); consecutive queries
        sharing a version are scored in one ``search_batch`` call.
        ``query_ids`` (``0..B-1`` by default) key every fault draw.

        A propagating :class:`~repro.errors.RetrievalUnavailable` is
        annotated with the already-served prefix (``served``,
        ``served_count``) so callers can settle per-video serve-or-refund
        accounting.
        """
        if not videos:
            return []
        if snapshots is None:
            snapshots = [None] * len(videos)
        elif len(snapshots) != len(videos):
            raise ValueError(
                f"got {len(snapshots)} snapshots for {len(videos)} queries")
        ids = None if query_ids is None else list(query_ids)
        features = self.embed_queries(videos)
        versions = [None if snap is None else snap.version
                    for snap in snapshots]
        results: list[RetrievalList] = []
        row = 0
        try:
            while row < len(features):
                end = row + 1
                while end < len(features) and versions[end] == versions[row]:
                    end += 1
                results.extend(RetrievalList(entries) for entries in
                               self.gallery.search_batch(
                                   features[row:end], m,
                                   snapshot=snapshots[row],
                                   query_ids=None if ids is None
                                   else ids[row:end]))
                row = end
        except RetrievalUnavailable as exc:
            exc.served = results + [RetrievalList(entries) for entries
                                    in getattr(exc, "served", ())]
            exc.served_count = len(exc.served)
            raise
        return results
