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
it returns best-first ``(scores, rows)`` arrays, honours a snapshot
reader's watermark and tombstone mask by over-fetching past the rows it
must skip, and builds no entry objects.  ``search``/``search_batch``
wrap it into :class:`~repro.retrieval.lists.RetrievalEntry` lists.

This base class shares the :class:`~repro.retrieval.index.RowBuffer`
row store with ``FeatureIndex`` and owns lazy builds, the exact-feature
payload (optionally spilled to a :class:`~repro.hashindex.store.MemmapStore`),
the rerank stage, and the obs counters every compressed search reports:
``hashindex.candidates_scanned``, ``hashindex.rerank_depth``, and the
store's ``hashindex.bytes_mapped``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs import counter, histogram
from repro.retrieval.index import (
    RowBuffer, as_query_matrix, empty_scan, scan_entries, top_k)
from repro.retrieval.lists import RetrievalEntry
from repro.retrieval.similarity import SimilarityFn, negative_l2
from repro.hashindex.store import MemmapStore

#: Rerank depths observed per query, bucketed for the obs histogram.
RERANK_DEPTH_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096)


class CompressedIndex(RowBuffer):
    """Base class: buffered rows + compressed scan + exact rerank.

    Parameters
    ----------
    similarity:
        Exact similarity used by the rerank stage (scores returned to
        callers are exact, never compressed approximations).
    rerank:
        Candidate depth the compressed scan over-fetches per query; the
        effective depth is ``min(len(index), max(k, rerank))``.
    store:
        Optional :class:`MemmapStore`; when set (or ``memmap=True``
        builds an owned temp store), codes and the exact float payload
        are memory-mapped instead of resident.
    """

    #: Metric label identifying the concrete tier in obs counters.
    tier = "compressed"

    def __init__(self, similarity: SimilarityFn = negative_l2,
                 rerank: int = 64, *,
                 store: MemmapStore | None = None,
                 memmap: bool = False) -> None:
        if rerank < 1:
            raise ValueError("rerank depth must be positive")
        self.similarity = similarity
        self.rerank = int(rerank)
        self.store = store if store is not None else (
            MemmapStore() if memmap else None)
        super().__init__()
        self._exact: np.ndarray | None = None
        self._dirty = True

    def add_batch(self, ids: Sequence[str], labels: Sequence[int],
                  features: np.ndarray) -> None:
        """Buffer many rows; the compressed payload rebuilds lazily."""
        before = len(self)
        super().add_batch(ids, labels, features)
        self._dirty = self._dirty or len(self) != before

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    def build(self) -> None:
        """(Re)build the compressed payload from the buffered rows."""
        if not self._dirty:
            return
        if not self._features:
            self._exact = None
            self._dirty = False
            return
        matrix = np.stack(self._features)
        if self.store is not None:
            self._exact = self.store.put("exact_features", matrix)
        else:
            self._exact = matrix
        self._build_compressed(matrix)
        self._dirty = False

    def _ensure_built(self) -> None:
        if self._dirty:
            self.build()

    def _build_compressed(self, matrix: np.ndarray) -> None:
        """Train/encode the compressed representation of ``matrix``."""
        raise NotImplementedError

    def _candidates(self, queries: np.ndarray, depth: int) -> list[np.ndarray]:
        """Per-query candidate row indexes from the compressed scan.

        Must return at most ``depth`` rows per query, already ranked by
        the compressed metric (ties broken deterministically).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Search = compressed scan + exact rerank
    # ------------------------------------------------------------------ #
    def effective_rerank(self, k: int) -> int:
        """Candidate depth used for a top-``k`` query."""
        return min(len(self), max(int(k), self.rerank))

    def scan(self, queries: np.ndarray, k: int, rows: int | None = None,
             hidden: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Best-first ``(scores, rows)``, each ``(B, k')``, per query.

        Same contract as :meth:`FeatureIndex.scan
        <repro.retrieval.index.FeatureIndex.scan>`: only the first
        ``rows`` rows count, rows flagged in ``hidden`` never surface,
        and ``k' = min(k, visible rows)``.  The compressed scan cannot
        skip rows, so it over-fetches by every row this read must not
        see and drops them before the exact rerank; queries left with
        fewer than ``k'`` candidates are padded with ``-inf``/``-1``.
        """
        queries = as_query_matrix(queries)
        batch = queries.shape[0]
        total = len(self._ids)
        rows = total if rows is None else min(int(rows), total)
        skipped = total - rows + (0 if hidden is None
                                  else int(np.count_nonzero(hidden)))
        width = min(int(k), total - skipped)
        if width <= 0:
            return empty_scan(batch)
        self._ensure_built()
        candidate_rows = self._candidates(
            queries, self.effective_rerank(int(k) + skipped))
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
                candidates = candidates[candidates < rows]
                if hidden is not None:
                    candidates = candidates[~hidden[candidates]]
            best, picked = self._rerank_one(query, candidates, width)
            scores[position, :best.size] = best
            found[position, :picked.size] = picked
        counter("hashindex.searches", tier=self.tier).inc(batch)
        return scores, found

    def search(self, query: np.ndarray, k: int) -> list[RetrievalEntry]:
        """Exact-reranked top-``k``; an empty index returns ``[]``."""
        query = np.asarray(query, dtype=np.float64).reshape(1, -1)
        return self.search_batch(query, k)[0]

    def search_batch(self, queries: np.ndarray, k: int
                     ) -> list[list[RetrievalEntry]]:
        """Top-``k`` for each row of a ``(B, d)`` query matrix."""
        return scan_entries(self, *self.scan(queries, k))

    def _rerank_one(self, query: np.ndarray, rows: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
        """Rescore candidate ``rows`` exactly; the best ``k`` of them."""
        if rows.size == 0:
            return np.empty(0), rows
        gathered = np.asarray(self._exact[rows], dtype=np.float64)
        scores = self.similarity(query, gathered)
        best, order = top_k(scores[None, :], min(k, rows.size))
        return best[0], rows[order[0]]

    # ------------------------------------------------------------------ #
    # Memory accounting (BENCH_ann)
    # ------------------------------------------------------------------ #
    def _resident_payload_bytes(self) -> int:
        """Bytes of compressed payload held in RAM (subclass-specific)."""
        raise NotImplementedError

    def memory_stats(self) -> dict:
        """Resident vs mapped bytes, plus the float-footprint baseline."""
        self._ensure_built()
        float_bytes = 0 if self._exact is None else int(self._exact.nbytes)
        exact_resident = 0 if (self._exact is None or self.store is not None) \
            else float_bytes
        return {
            "rows": len(self),
            "float_feature_bytes": float_bytes,
            "resident_bytes": self._resident_payload_bytes() + exact_resident,
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


__all__ = ["CompressedIndex", "RERANK_DEPTH_BUCKETS"]
