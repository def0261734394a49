"""The ``Index`` protocol every searchable container implements.

:class:`~repro.retrieval.index.FeatureIndex`, the compressed tiers
(:class:`~repro.hashindex.binary.BinaryHashIndex`,
:class:`~repro.hashindex.ivfpq.IVFPQIndex`),
:class:`~repro.retrieval.nodes.DataNode`, and
:class:`~repro.retrieval.nodes.ShardedGallery` share this one
structural protocol, so any of them can back a data node, a shard, or
a standalone gallery interchangeably — and tests can assert
conformance with ``isinstance(obj, Index)``.

Everything but the gallery also implements :class:`ScanIndex`, the
array primitive the scatter/gather path runs on: a node answers the
coordinator with best-first ``(scores, rows)`` arrays, and entry
objects are built only for the merged top-m.  The gallery has no
``scan`` of its own, because its rows live on several nodes.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.retrieval.lists import RetrievalEntry


@runtime_checkable
class Index(Protocol):
    """Uniform add/search surface over gallery rows.

    Semantics shared by all implementations:

    * ``add_batch`` mirrors ``zip()``: extra entries in any argument are
      ignored (the row count is the min of the three lengths).
    * ``search`` returns at most ``k`` entries, best first; an empty
      index returns an empty list.
    * ``search_batch`` over a ``(B, d)`` query matrix returns exactly
      the per-row results of ``B`` sequential ``search`` calls; every
      implementation runs ``search`` as the ``B = 1`` case of the
      batched body, so this holds by construction.
    """

    def __len__(self) -> int: ...

    def add(self, video_id: str, label: int, feature: np.ndarray) -> None: ...

    def add_batch(self, ids: Sequence[str], labels: Sequence[int],
                  features: np.ndarray) -> None: ...

    def search(self, query: np.ndarray, k: int) -> list[RetrievalEntry]: ...

    def search_batch(self, queries: np.ndarray, k: int
                     ) -> list[list[RetrievalEntry]]: ...

    def labels_of(self) -> list[int]: ...


@runtime_checkable
class ScanIndex(Index, Protocol):
    """An :class:`Index` over one row store, with the array scan.

    ``scan(queries, k, rows=None, hidden=None)`` returns ``(scores,
    rows)``, both ``(B, k')``, sorted best first per query:

    * only the first ``rows`` stored rows are scored (all by default),
      so a snapshot reader never sees rows appended after its
      watermark;
    * rows flagged in the boolean mask ``hidden`` (over those rows)
      are never returned — this is how tombstones stay out;
    * ``k' = min(k, visible rows)``; a query with fewer results is
      padded with ``-inf`` scores and ``-1`` rows at the end;
    * ties keep one ``argpartition`` plus a stable sort of the head.

    ``search``/``search_batch`` are thin wrappers that turn the arrays
    into :class:`~repro.retrieval.lists.RetrievalEntry` lists.
    """

    def scan(self, queries: np.ndarray, k: int, rows: int | None = None,
             hidden: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]: ...


__all__ = ["Index", "ScanIndex"]
