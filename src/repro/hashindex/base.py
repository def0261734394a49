"""Shared machinery of the compressed index tier.

Both compressed indexes (:class:`~repro.hashindex.binary.BinaryHashIndex`
and :class:`~repro.hashindex.ivfpq.IVFPQIndex`) follow the same
two-stage contract:

1. a **compressed scan** ranks the whole gallery cheaply and returns an
   over-fetched candidate set (``rerank`` rows per query, ≥ ``k``);
2. an **exact rerank** rescores exactly those candidates against the
   float features with the configured similarity, so the returned
   entries carry exact scores and the final ordering is differentially
   testable against :class:`~repro.retrieval.index.FeatureIndex`
   (``hashindex.compressed_vs_exact`` oracle, recall@k floor).

Both stages run inside :meth:`CompressedIndex.scan`, the array
primitive of the :class:`~repro.retrieval.protocol.ScanIndex` protocol:
it returns best-first ``(scores, rows)`` arrays over the payload built
for the reader's watermark, drops the rows its tombstone mask hides,
and builds no entry objects.

This base class shares the :class:`~repro.retrieval.index.RowBuffer`
row store (and its ``search``/``search_batch`` wrappers) with
``FeatureIndex`` and owns the per-watermark builds, the exact-feature
payload (optionally spilled to a :class:`~repro.hashindex.store.MemmapStore`),
the rerank stage, and the obs counters every compressed search reports:
``hashindex.candidates_scanned``, ``hashindex.rerank_depth``, and the
store's ``hashindex.bytes_mapped``.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.obs import counter, histogram
from repro.retrieval.index import RowBuffer, as_query_matrix, empty_scan, top_k
from repro.retrieval.similarity import SimilarityFn, negative_l2
from repro.hashindex.store import MemmapStore
from repro.utils.seeding import seeded_rng

#: Rerank depths observed per query, bucketed for the obs histogram.
RERANK_DEPTH_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096)

#: Builds an index keeps, by watermark, so pooled readers pinned at
#: different watermarks do not evict one another's (least recent first).
BUILD_SLOTS = 4


@dataclass(frozen=True)
class Build:
    """One immutable payload over an index's first ``rows`` rows: their
    exact features plus (per tier subclass) the coder or cells and codes."""

    rows: int
    exact: np.ndarray


class CompressedIndex(RowBuffer):
    """Base class: buffered rows + compressed scan + exact rerank.

    **One snapshot rule.**  A scan at watermark ``w`` reads a
    :class:`Build` that is a pure function of ``(rng, rows[:w])``: each
    build draws from a fresh copy of the constructor's generator state,
    so neither later appends nor earlier reads change what a reader
    sees.  Tombstoned rows stay in the build; the scan's ``hidden`` mask
    drops them.  :data:`BUILD_SLOTS` builds are cached by watermark
    (stored arrays named ``name@rows``, dropped on eviction), built
    under a per-index lock; a scan reads only the one build it took.

    Parameters
    ----------
    similarity:
        Exact similarity used by the rerank stage (scores returned to
        callers are exact, never compressed approximations).
    rerank:
        Candidate depth the compressed scan over-fetches per query; the
        effective depth is ``min(len(index), max(k, rerank))``.
    rng:
        Seed or generator every build copies (never advances).
    store:
        Optional :class:`MemmapStore`; when set (or ``memmap=True``
        builds an owned temp store), codes and the exact float payload
        are memory-mapped instead of resident.
    """

    #: Metric label identifying the concrete tier in obs counters.
    tier = "compressed"

    def __init__(self, similarity: SimilarityFn = negative_l2,
                 rerank: int = 64, rng=None, *,
                 store: MemmapStore | None = None,
                 memmap: bool = False) -> None:
        if rerank < 1:
            raise ValueError("rerank depth must be positive")
        self.similarity = similarity
        self.rerank = int(rerank)
        self.store = store if store is not None else (
            MemmapStore() if memmap else None)
        super().__init__()
        self._seed = copy.deepcopy(seeded_rng(rng))
        self._lock = threading.Lock()
        self._builds: OrderedDict[int, Build] = OrderedDict()

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    def build(self, rows: int | None = None) -> Build | None:
        """The payload over the first ``rows`` rows (all by default);
        ``None`` when there are none."""
        rows = len(self) if rows is None else min(int(rows), len(self))
        if not rows:
            return None
        with self._lock:
            built = self._builds.get(rows)
            if built is not None:
                self._builds.move_to_end(rows)
                return built
            matrix = np.stack(self._features[:rows])
            built = self._builds[rows] = self._build(
                rows, self._put("exact_features", rows, matrix), matrix,
                copy.deepcopy(self._seed))
            if len(self._builds) > BUILD_SLOTS:
                evicted, _ = self._builds.popitem(last=False)
                if self.store is not None:
                    self.store.drop(f"@{evicted}")
        return built

    def _put(self, name: str, rows: int, array: np.ndarray) -> np.ndarray:
        """``array``, memory-mapped as ``name@rows`` when there is a store."""
        return array if self.store is None else \
            self.store.put(f"{name}@{rows}", array)

    def _build(self, rows: int, exact: np.ndarray, matrix: np.ndarray,
               rng: np.random.Generator) -> Build:
        """Train/encode the tier's payload over ``matrix`` with ``rng``."""
        raise NotImplementedError

    def _candidates(self, built: Build, queries: np.ndarray,
                    depth: int) -> list[np.ndarray]:
        """Per-query candidate row indexes from the compressed scan.

        Must return at most ``depth`` rows of ``built`` per query,
        already ranked by the compressed metric (ties broken
        deterministically).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Search = compressed scan + exact rerank
    # ------------------------------------------------------------------ #
    def effective_rerank(self, k: int, rows: int | None = None) -> int:
        """Candidate depth used for a top-``k`` query over ``rows`` rows."""
        return min(len(self) if rows is None else rows,
                   max(int(k), self.rerank))

    def scan(self, queries: np.ndarray, k: int, rows: int | None = None,
             hidden: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Best-first ``(scores, rows)``, each ``(B, k')``, per query.

        Same contract as :meth:`FeatureIndex.scan
        <repro.retrieval.index.FeatureIndex.scan>`: only the first
        ``rows`` rows count, rows flagged in ``hidden`` never surface,
        and ``k' = min(k, visible rows)``.  The scan reads the build
        over exactly those rows; it over-fetches by the hidden rows and
        drops them before the exact rerank, and queries left with fewer
        than ``k'`` candidates are padded with ``-inf``/``-1``.
        """
        queries = as_query_matrix(queries)
        batch = queries.shape[0]
        rows = len(self) if rows is None else min(int(rows), len(self))
        skipped = 0 if hidden is None else int(np.count_nonzero(hidden))
        width = min(int(k), rows - skipped)
        if width <= 0:
            return empty_scan(batch)
        built = self.build(rows)
        candidate_rows = self._candidates(
            built, queries, self.effective_rerank(int(k) + skipped, rows))
        scanned = int(sum(candidates.size for candidates in candidate_rows))
        counter("hashindex.candidates_scanned", tier=self.tier).inc(scanned)
        depth_histogram = histogram("hashindex.rerank_depth",
                                    buckets=RERANK_DEPTH_BUCKETS,
                                    tier=self.tier)
        scores = np.full((batch, width), -np.inf)
        found = np.full((batch, width), -1, dtype=np.intp)
        for position, (query, candidates) in enumerate(
                zip(queries, candidate_rows)):
            depth_histogram.observe(candidates.size)
            if skipped:
                candidates = candidates[~hidden[candidates]]
            best, picked = self._rerank_one(built.exact, query, candidates,
                                            width)
            scores[position, :best.size] = best
            found[position, :picked.size] = picked
        counter("hashindex.searches", tier=self.tier).inc(batch)
        return scores, found

    def _rerank_one(self, exact: np.ndarray, query: np.ndarray,
                    rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rescore candidate ``rows`` exactly; the best ``k`` of them."""
        if rows.size == 0:
            return np.empty(0), rows
        gathered = np.asarray(exact[rows], dtype=np.float64)
        scores = self.similarity(query, gathered)
        best, order = top_k(scores[None, :], min(k, rows.size))
        return best[0], rows[order[0]]

    # ------------------------------------------------------------------ #
    # Memory accounting (BENCH_ann)
    # ------------------------------------------------------------------ #
    def _resident_payload_bytes(self, built: Build) -> int:
        """Bytes of ``built``'s compressed payload held in RAM."""
        raise NotImplementedError

    def memory_stats(self) -> dict:
        """Resident vs mapped bytes, plus the float-footprint baseline."""
        built = self.build()
        float_bytes = 0 if built is None else int(built.exact.nbytes)
        resident = 0 if built is None else self._resident_payload_bytes(built)
        return {
            "rows": len(self),
            "float_feature_bytes": float_bytes,
            "resident_bytes": resident + (0 if self.store is not None
                                          else float_bytes),
            "mapped_bytes": 0 if self.store is None else self.store.mapped_bytes,
        }

    def recall_at_k(self, exact_index, queries: np.ndarray, k: int) -> float:
        """Mean fraction of the exact top-k this index also returns."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if not len(queries):
            return 0.0
        total = 0.0
        mine = self.search_batch(queries, k)
        for query, approx in zip(queries, mine):
            exact = {entry.video_id for entry in exact_index.search(query, k)}
            total += len(exact & {entry.video_id for entry in approx}) \
                / max(len(exact), 1)
        return total / len(queries)


__all__ = ["BUILD_SLOTS", "Build", "CompressedIndex", "RERANK_DEPTH_BUCKETS"]
