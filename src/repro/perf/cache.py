"""Content-hash LRU cache for query embeddings, at frame granularity.

Repeated queries of *unchanged* videos are common outside the inner
attack loop: defense sweeps re-query the same originals per defense,
metric recomputation re-embeds the winners, and ``run_all`` rebuilds the
same gallery per experiment.  Inside the loop, a sparse query attack's
±ε candidates differ from clips the engine already embedded in the few
frames its search picked (DUO perturbs only its k key frames).

Keys are SHA-256 digests, hashed in place over each frame's shape,
dtype and bytes (:func:`frame_keys`); a clip's key is the tuple of its
frame digests, so any single-value change is a new clip key but leaves
every other frame's digest alone.  :class:`EmbeddingCache` holds three
kinds of entry, each its own LRU of ``capacity`` entries:

* **clips** — final features by clip key (the hit path: a repeated
  clip skips the model entirely);
* **frames** — per-frame encoder outputs by frame digest;
* **states** — recurrent ``[h | c]`` states after step ``t``, keyed by
  the digest prefix up to ``t`` and the clip count of the head call
  that computed them.

Frame-separable victims (:attr:`VideoBackbone.frame_features`) re-encode
only the frames no entry covers and resume their recurrent head at the
longest cached prefix (:meth:`FeatureExtractor.embed_videos` with
``cache=``); a chunk with nothing to reuse runs the full forward and
stores clip features only.  Other backbones decline, counted by reason,
and keep clip-level entries under the same keys.

A state resumes only in a head call over the same number of clips:
BLAS rounds a GEMM row differently at different row counts (a one-row
product runs gemv, and small-matrix kernels switch with the problem
size), so a state computed at another batch size could change the
result's last bits.  Frame encoder outputs have no such dependence —
each frame's convolutions are their own GEMMs.

Stored features are private frozen copies returned as-is (hits are
bit-identical to the original forward; the caller's array is never
frozen or aliased), and every bookkeeping step takes the lock once per
batch and bumps each ``repro.obs`` counter once per batch under
``retrieval.embed_cache.*``: clip ``hits``/``misses``/``evictions``,
``frames_encoded``/``frames_reused``, ``steps_run``/``steps_skipped``
and ``declines`` by reason.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.obs import counter, gauge

#: Default capacity; override per engine (``cache_size=``).
DEFAULT_CAPACITY = 256

#: Work counters :meth:`EmbeddingCache.store` accepts, in ``stats()`` order.
WORK_COUNTERS = ("frames_encoded", "frames_reused", "steps_run",
                 "steps_skipped")


def content_key(pixels: np.ndarray) -> bytes:
    """SHA-256 digest of a pixel array's contents + geometry.

    The pixel buffer is hashed in place (no ``tobytes`` copy); SHA-256
    runs on the CPU's SHA extensions where present, about twice as fast
    as BLAKE2b over a clip.
    """
    digest = hashlib.sha256(f"{pixels.shape}{pixels.dtype}".encode())
    digest.update(np.ascontiguousarray(pixels))
    return digest.digest()


def frame_keys(pixels: np.ndarray) -> tuple[bytes, ...]:
    """A clip's key: the :func:`content_key` of each frame (axis 0)."""
    pixels = np.ascontiguousarray(pixels)
    header = _HEADERS.get((pixels.shape[1:], pixels.dtype))
    if header is None:
        header = _HEADERS[pixels.shape[1:], pixels.dtype] = hashlib.sha256(
            f"{pixels.shape[1:]}{pixels.dtype}".encode())
    data = memoryview(pixels).cast("B")
    step = pixels[0].nbytes if len(pixels) else 0
    keys = []
    for start in range(0, step * len(pixels), step):
        digest = header.copy()
        digest.update(data[start:start + step])
        keys.append(digest.digest())
    return tuple(keys)


#: Frame geometry → SHA-256 state after the ``content_key`` header.
_HEADERS: dict = {}


def _touch(table: OrderedDict, keys: list) -> list:
    """The entry for every key (``None`` where absent); each one found
    becomes the most recently used."""
    found = [table.get(key) for key in keys]
    for key, entry in zip(keys, found):
        if entry is not None:
            table.move_to_end(key)
    return found


def _insert(table: OrderedDict, items, capacity: int) -> int:
    """Store ``(key, entry)`` items as most recent; returns how many
    least recently used entries that evicted."""
    for key, entry in items:
        table[key] = entry
        table.move_to_end(key)
    evicted = max(len(table) - capacity, 0)
    for _ in range(evicted):
        table.popitem(last=False)
    return evicted


class EmbeddingCache:
    """Bounded maps from content digests to features, encodings and
    recurrent states.

    A ``capacity`` of 0 disables the cache (every lookup misses, nothing
    is stored), which keeps call sites branch-free.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 metric_prefix: str = "retrieval.embed_cache") -> None:
        self.capacity = int(capacity)
        if self.capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {self.capacity}")
        self.metric_prefix = metric_prefix
        self._entries: OrderedDict = OrderedDict()  # clip key → feature
        #: frame digest → ``(encoder output, row)``
        self._frames: OrderedDict = OrderedDict()
        #: ``(clips, digest prefix)`` → ``(head output, row, first)``:
        #: the state sits in the head output's slot for that prefix
        #: length, counted from ``first`` (see ``FeatureExtractor``).
        self._states: OrderedDict = OrderedDict()
        # Serializes the table updates; µs-scale next to the hash +
        # forward either side of it, and required once serving workers
        # embed concurrently.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._work = dict.fromkeys(WORK_COUNTERS, 0)
        self._names = {name: f"{metric_prefix}.{name}" for name in
                       ("hits", "misses", "evictions", "size", "declines",
                        *WORK_COUNTERS)}
        self._declines: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    # -------------------------------------------------------------- #
    # Clip entries
    # -------------------------------------------------------------- #
    def lookup(self, keys: list) -> list:
        """Clip features for ``keys`` (``None`` where absent); counts
        one hit or miss per key."""
        # hits/misses live under the lock: pooled-worker runs increment
        # from several threads, and an unlocked read-modify-write loses
        # updates, so stats() could disagree with the obs counters (and
        # with the number of lookups actually made).
        with self._lock:
            found = _touch(self._entries, keys)
            hits = sum(entry is not None for entry in found)
            self.hits += hits
            self.misses += len(keys) - hits
        if hits:
            counter(self._names["hits"]).inc(hits)
        if hits < len(keys):
            counter(self._names["misses"]).inc(len(keys) - hits)
        return found

    def get(self, key) -> np.ndarray | None:
        """Look up one clip key; counts a hit or miss either way (a
        single-key :meth:`lookup`, for callers outside the engine)."""
        return self.lookup([key])[0]

    def put(self, key, feature: np.ndarray) -> None:
        """Store one clip feature as a frozen private copy (a single-key
        :meth:`store` that leaves the caller's array alone)."""
        self.store([key], np.array(feature)[None])

    # -------------------------------------------------------------- #
    # Frame and state entries
    # -------------------------------------------------------------- #
    def resume(self, keys: list) -> tuple[int, list | None, list, list]:
        """Where a head call over clips ``keys`` can start.

        Returns ``(start, states, digests, encodings)``: the longest
        prefix length every clip has a cached state for, with those
        ``(array, row, first)`` states (``None`` at 0); then the digest
        of every frame from ``start`` on, clip-major, and its cached
        ``(array, row)`` encoding (``None`` where absent).
        """
        batch, steps = len(keys), len(keys[0])
        states, frames = self._states, self._frames
        start, found = 0, None
        with self._lock:
            for step in range(1, steps):
                row = _touch(states, [(batch, key[:step]) for key in keys])
                if None in row:
                    break
                start, found = step, row
            digests = [digest for key in keys for digest in key[start:]]
            encodings = _touch(frames, digests)
        return start, found, digests, encodings

    def store(self, keys: list, features: np.ndarray, frames=(),
              states=(), **work: int) -> None:
        """Insert clip ``features`` under ``keys``, plus ``frames``
        (``(digest, (array, row))`` pairs) and ``states`` (``(key,
        (array, row, first))`` pairs), under one lock; ``work`` bumps the
        :data:`WORK_COUNTERS`.

        Every array must be private to the cache from here on (no
        caller keeps writing it); ``features`` is frozen in place, and
        hits return its rows as-is.
        """
        if not self.enabled:
            return
        features.setflags(write=False)
        names, capacity = self._names, self.capacity
        with self._lock:
            evicted = _insert(self._entries, zip(keys, features), capacity) \
                + _insert(self._frames, frames, capacity) \
                + _insert(self._states, states, capacity)
            self.evictions += evicted
            for name, amount in work.items():
                self._work[name] += amount
            size = len(self._entries)
        if evicted:
            counter(names["evictions"]).inc(evicted)
        for name, amount in work.items():
            if amount:
                counter(names[name]).inc(amount)
        gauge(names["size"]).set(size)

    def decline(self, reason: str, clips: int) -> None:
        """Count ``clips`` embedded by the full forward for ``reason``."""
        with self._lock:
            self._declines[reason] = self._declines.get(reason, 0) + clips
        counter(self._names["declines"], reason=reason).inc(clips)

    def clear(self) -> None:
        """Drop every entry (e.g. after the extractor's weights change)."""
        with self._lock:
            self._entries.clear()
            self._frames.clear()
            self._states.clear()
        gauge(self._names["size"]).set(0)

    def stats(self) -> dict:
        """Clip hit/miss/eviction counts, sizes and frame/step work (one
        atomic view)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "frames": len(self._frames),
                "states": len(self._states),
                **self._work,
                "declines": dict(self._declines),
            }
