"""The single ``Index`` protocol every searchable container implements.

:class:`~repro.retrieval.index.FeatureIndex`, the compressed tiers
(:class:`~repro.hashindex.binary.BinaryHashIndex`,
:class:`~repro.hashindex.ivfpq.IVFPQIndex`),
:class:`~repro.retrieval.nodes.DataNode`, and
:class:`~repro.retrieval.nodes.ShardedGallery` share this one
structural protocol, so any of them can back a data node, a shard, or
a standalone gallery interchangeably — and tests can assert
conformance with ``isinstance(obj, Index)``.
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
      the per-row results of ``B`` sequential ``search`` calls.
    """

    def __len__(self) -> int: ...

    def add(self, video_id: str, label: int, feature: np.ndarray) -> None: ...

    def add_batch(self, ids: Sequence[str], labels: Sequence[int],
                  features: np.ndarray) -> None: ...

    def search(self, query: np.ndarray, k: int) -> list[RetrievalEntry]: ...

    def search_batch(self, queries: np.ndarray, k: int
                     ) -> list[list[RetrievalEntry]]: ...

    def labels_of(self) -> list[int]: ...


__all__ = ["Index"]
