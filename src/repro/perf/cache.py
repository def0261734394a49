"""Content-hash LRU cache for query embeddings.

Repeated queries of *unchanged* videos are common outside the inner
attack loop: defense sweeps re-query the same originals per defense,
metric recomputation re-embeds the winners, and ``run_all`` rebuilds the
same gallery per experiment.  Each of those pays a full model forward
for pixels the engine has already embedded.

:class:`EmbeddingCache` keys on a SHA-256 digest of the raw pixel bytes
(plus shape and dtype), so any single-value perturbation — i.e. every
candidate the attacks generate — is a guaranteed miss and costs only the
hash (tens of µs for a 49 KB clip, vs. ms for a forward).  Stored
features are private copies frozen with ``writeable=False`` and returned
as-is, so hits are bit-identical to the original forward and the
caller's array is never frozen or aliased in place.  Hit/miss/eviction
counts are exported through ``repro.obs`` under
``retrieval.embed_cache.*``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.obs import counter, gauge

#: Default capacity; override per engine (``cache_size=``).
DEFAULT_CAPACITY = 256


def content_key(pixels: np.ndarray) -> bytes:
    """SHA-256 digest of a pixel array's contents + geometry.

    The pixel buffer is hashed in place (no ``tobytes`` copy); SHA-256
    runs on the CPU's SHA extensions where present, about twice as fast
    as BLAKE2b over a clip.
    """
    digest = hashlib.sha256(f"{pixels.shape}{pixels.dtype}".encode())
    digest.update(np.ascontiguousarray(pixels))
    return digest.digest()


class EmbeddingCache:
    """Bounded LRU map from pixel-content digests to feature vectors.

    A ``capacity`` of 0 disables the cache (every lookup misses, nothing
    is stored), which keeps call sites branch-free.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 metric_prefix: str = "retrieval.embed_cache") -> None:
        self.capacity = int(capacity)
        if self.capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {self.capacity}")
        self.metric_prefix = metric_prefix
        self._entries: OrderedDict[bytes, np.ndarray] = OrderedDict()
        # Serializes the OrderedDict reorders; µs-scale next to the
        # hash + forward either side of it, and required once serving
        # workers embed concurrently.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key: bytes) -> np.ndarray | None:
        """Look up a digest; counts a hit or miss either way."""
        # hits/misses live under the lock: pooled-worker runs increment
        # from several threads, and an unlocked read-modify-write loses
        # updates, so stats() could disagree with the obs counters (and
        # with the number of lookups actually made).
        with self._lock:
            entry = self._entries.get(key) if self.enabled else None
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is None:
            counter(f"{self.metric_prefix}.misses").inc()
            return None
        counter(f"{self.metric_prefix}.hits").inc()
        return entry

    def put(self, key: bytes, feature: np.ndarray) -> None:
        """Store a feature vector (frozen against mutation)."""
        if not self.enabled:
            return
        stored = np.asarray(feature)
        if np.shares_memory(stored, feature):
            # ``asarray`` returns the caller's array (or a view of it)
            # unchanged; freezing that in place would make the *caller's*
            # buffer read-only and leave the cache aliasing memory the
            # caller may still mutate.  Store a private copy instead.
            stored = stored.copy()
        stored.setflags(write=False)
        evicted = 0
        with self._lock:
            self._entries[key] = stored
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            size = len(self._entries)
        if evicted:
            counter(f"{self.metric_prefix}.evictions").inc(evicted)
        gauge(f"{self.metric_prefix}.size").set(size)

    def clear(self) -> None:
        """Drop every entry (e.g. after the extractor's weights change)."""
        with self._lock:
            self._entries.clear()
        gauge(f"{self.metric_prefix}.size").set(0)

    def stats(self) -> dict:
        """Hit/miss/eviction counts and current size (one atomic view)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
