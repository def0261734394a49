"""Immutable gallery snapshots for snapshot-consistent reads.

Every :class:`~repro.retrieval.nodes.ShardedGallery` read runs against
a :class:`GallerySnapshot` — a frozen view of *one* gallery version,
pinned by the caller or taken (and cached) at the current version.  A
query evaluated against a snapshot sees exactly the rows that were live
at that version: rows added later are hidden by the per-node
``watermarks`` (physical row counts captured at snapshot time), rows
deleted later stay visible because their tombstone version in
``dead_at`` exceeds the snapshot's, and rows deleted at or before the
snapshot are masked out of the scan itself: :meth:`hidden` builds one
boolean mask per node on first use and caches it, and every index scan
skips the masked rows, so no tombstone ever reaches the merge.

The ``dead_at`` and ``alias`` dictionaries are *shared* with the
gallery, not copied: mutations only ever add keys with versions greater
than any existing snapshot, so an old snapshot's visibility decisions
never change.  That makes snapshots O(nodes) to build and free to hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class GallerySnapshot:
    """One immutable version of a sharded gallery."""

    #: Monotonic version counter; bumped once per gallery write.
    version: int
    #: The per-node index objects pinned by this snapshot.  Tier swaps
    #: and compactions install *new* index objects, so a reader holding
    #: this tuple never observes a half-built index.
    indexes: tuple
    #: Physical rows per node at snapshot time; rows appended later sit
    #: beyond the watermark and are invisible to this snapshot.
    watermarks: tuple
    #: rowid -> version at which the row was tombstoned (shared, grow-only).
    dead_at: Mapping
    #: rowid -> public video id where the two differ (shared).
    alias: Mapping
    #: Live (visible) row count at this version.
    live_count: int
    #: Index tier the pinned indexes were built with.
    tier: str
    #: position -> cached :meth:`hidden` mask (filled on first use).
    _masks: dict = field(default_factory=dict, compare=False, repr=False)

    def hidden(self, position: int) -> np.ndarray | None:
        """Mask of node ``position``'s rows (below its watermark) that
        are not live at this version; ``None`` when every row is.

        Every row below a watermark was added at or before this version
        (a row is appended in the same locked step that bumps the
        version), so only rows tombstoned at or before it are masked.
        Built once per (snapshot, node) and cached; a race between two
        readers only builds the same mask twice.
        """
        try:
            return self._masks[position]
        except KeyError:
            pass
        ids = self.indexes[position]._ids[:self.watermarks[position]]
        dead_at, version = self.dead_at, self.version
        rows = [ids.index(rowid) for rowid in dead_at.keys() & set(ids)
                if dead_at[rowid] <= version]
        mask = None
        if rows:
            mask = np.zeros(len(ids), dtype=bool)
            mask[rows] = True
        self._masks[position] = mask
        return mask


__all__ = ["GallerySnapshot"]
