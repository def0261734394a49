"""Brute-force feature index over gallery embeddings."""

from __future__ import annotations

import numpy as np

from repro.retrieval.lists import RetrievalEntry
from repro.retrieval.similarity import SimilarityFn, batched_similarity, negative_l2


def as_query_matrix(queries: np.ndarray) -> np.ndarray:
    """``queries`` as a float64 ``(B, d)`` matrix (a 1-D query is B = 1)."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim > 1:
        return queries.reshape(queries.shape[0], -1)
    return queries.reshape(1, -1)


def empty_scan(batch: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(scores, rows)`` of a scan that found nothing."""
    return np.empty((batch, 0)), np.empty((batch, 0), dtype=np.intp)


def top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Best-first ``(scores, columns)`` of the ``k`` highest per row.

    One ``argpartition`` for the whole ``(B, n)`` matrix, then a stable
    sort of each ``k``-wide head, so ties keep the partition's order.
    """
    head = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    lines = np.arange(scores.shape[0])[:, None]
    head_scores = scores[lines, head]
    order = np.argsort(-head_scores, axis=1, kind="stable")
    return head_scores[lines, order], head[lines, order]


def scan_entries(index, scores: np.ndarray,
                 rows: np.ndarray) -> list[list[RetrievalEntry]]:
    """Turn one index's :meth:`scan` result into per-query entry lists."""
    ids, labels = index._ids, index._labels
    return [
        [RetrievalEntry(ids[row], labels[row], score)
         for score, row in zip(row_scores, row_ids) if row >= 0]
        for row_scores, row_ids in zip(scores.tolist(), rows.tolist())
    ]


class RowBuffer:
    """Append-only ``(id, label, feature)`` rows, shared by every index.

    ``add_batch`` mirrors ``zip()``: the row count is the min of the
    three lengths and extra entries are ignored; ``add`` is the one-row
    batch.  Ids and labels are appended *before* their feature row and
    the row count is the feature count, so a concurrent reader never
    sees a feature row without its metadata.  Subclasses provide
    ``scan``; :meth:`search` and :meth:`search_batch` wrap it.
    """

    def __init__(self) -> None:
        self._ids: list[str] = []
        self._labels: list[int] = []
        self._features: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._features)

    def add(self, video_id: str, label: int, feature: np.ndarray) -> None:
        """Append one row."""
        self.add_batch([video_id], [label], [feature])

    def add_batch(self, ids: list[str], labels: list[int],
                  features: np.ndarray) -> None:
        """Append many rows in one pass (``features`` is ``(n, d)``),
        checking the feature dimension once."""
        count = min(len(ids), len(labels), len(features))
        if count == 0:
            return
        features = np.asarray(features[:count], dtype=np.float64)
        features = features.reshape(count, -1)
        if self._features and features.shape[1:] != self._features[0].shape:
            raise ValueError(
                f"feature dim mismatch: {features.shape[1:]} vs "
                f"{self._features[0].shape}"
            )
        self._ids.extend(str(video_id) for video_id in ids[:count])
        self._labels.extend(int(label) for label in labels[:count])
        self._features.extend(features)

    def rows(self, skip=frozenset()) -> tuple[list, list, list]:
        """``(ids, labels, features)`` of the stored rows whose id is not
        in ``skip``, in storage order (ready for :meth:`add_batch`)."""
        keep = [row for row, video_id in enumerate(self._ids[:len(self)])
                if video_id not in skip]
        return ([self._ids[row] for row in keep],
                [self._labels[row] for row in keep],
                [self._features[row] for row in keep])

    def labels_of(self) -> list[int]:
        """All stored labels (gallery statistics, metric computation)."""
        return list(self._labels)

    def search(self, query: np.ndarray, k: int) -> list[RetrievalEntry]:
        """The ``k`` best entries, best first: :meth:`search_batch` of
        one.  An empty index returns ``[]`` for any query shape."""
        query = np.asarray(query, dtype=np.float64).reshape(1, -1)
        return self.search_batch(query, k)[0]

    def search_batch(self, queries: np.ndarray, k: int
                     ) -> list[list[RetrievalEntry]]:
        """Top-``k`` entries for each row of a ``(B, d)`` query matrix:
        the subclass's ``scan``, turned into entry lists."""
        return scan_entries(self, *self.scan(queries, k))


class FeatureIndex(RowBuffer):
    """Flat index mapping features to (video_id, label) rows.

    Rows are appended through the :class:`RowBuffer`.  :meth:`scan`
    scores a ``(B, d)`` query matrix against the rows with one
    vectorized similarity call and one ``argpartition`` for the whole
    batch, and returns the best ``k`` per query as ``(scores, rows)``
    arrays; the buffer's ``search`` and ``search_batch`` wrap it into
    :class:`RetrievalEntry` lists.

    The index is append-only and safe for concurrent readers: the
    buffer publishes a row only with its metadata, the matrix cache is
    grow-only (readers validate its length against the rows they need
    and extend it when stale), and :meth:`scan` scores only the first
    ``rows`` rows so a snapshot reader never observes rows appended
    after its watermark.
    """

    def __init__(self, similarity: SimilarityFn = negative_l2) -> None:
        super().__init__()
        self.similarity = similarity
        self._matrix: np.ndarray | None = None

    def _feature_matrix(self, rows: int | None = None) -> np.ndarray:
        """The first ``rows`` gallery rows as an ``(rows, d)`` matrix.

        The cache is grow-only: a cached matrix shorter than ``rows`` is
        extended by the rows appended since it was built, a longer one
        (rows appended by a writer after the caller fixed its
        watermark) is sliced.  Callers must guard ``rows == 0``.
        """
        needed = len(self._features) if rows is None else int(rows)
        if needed <= 0:
            # An empty index has no feature dimension to expose; searching
            # it must short-circuit rather than score a bogus (0, 0) array.
            raise RuntimeError("feature matrix requested from an empty index")
        matrix = self._matrix
        if matrix is None:
            matrix = self._matrix = np.stack(list(self._features))
        elif matrix.shape[0] < needed:
            matrix = self._matrix = np.concatenate(
                [matrix, np.stack(self._features[matrix.shape[0]:])])
        if matrix.shape[0] == needed:
            return matrix
        return matrix[:needed]

    def scan(self, queries: np.ndarray, k: int, rows: int | None = None,
             hidden: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Best-first ``(scores, rows)``, each ``(B, k')``, per query.

        Only the first ``rows`` rows are scored (all by default), and
        rows flagged in the boolean mask ``hidden`` (over those rows)
        are never returned; ``k' = min(k, visible rows)``.
        """
        queries = as_query_matrix(queries)
        rows = len(self._features) if rows is None \
            else min(int(rows), len(self._features))
        visible = rows if hidden is None \
            else rows - int(np.count_nonzero(hidden))
        k = min(int(k), visible)
        if k <= 0:
            return empty_scan(queries.shape[0])
        scores = batched_similarity(self.similarity)(
            queries, self._feature_matrix(rows))
        if hidden is not None:
            scores[:, hidden] = -np.inf
        return top_k(scores, k)
