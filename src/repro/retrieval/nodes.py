"""Simulated distributed data nodes and the sharded gallery coordinator.

Paper Figure 1 shows the retrieval system locating "videos in various
distributed data nodes that are close to [the query] in the feature
space".  :class:`ShardedGallery` reproduces that topology in-process: the
gallery is sharded across ``num_nodes`` :class:`DataNode`s and a
coordinator performs scatter/gather top-k merging.  Nodes can be taken
down to test degraded retrieval, a
:class:`~repro.resilience.FaultPlan` can script richer incidents
(flakiness, slowness, score corruption, outage windows), and the
coordinator keeps a ``networkx`` star topology for introspection.

With a :class:`~repro.resilience.ResilienceConfig` the coordinator turns
into a self-healing retrieval plane:

* each row is stored on ``replication`` consecutive nodes, and the
  quorum-aware merge keeps retrieval **exact** while at least one
  replica of every shard is live;
* per-node calls run under retry-with-backoff and a circuit breaker;
* slow nodes are dropped from the merge when faster replicas cover
  their shards (hedged scatter reads);
* when coverage is lost the query either degrades (pre-resilience
  behaviour) or raises :class:`~repro.errors.RetrievalUnavailable` so
  attack loops can checkpoint and resume.

Every gallery is live and versioned from its first insert: an ingest
call (:meth:`~ShardedGallery.add_batch`, or :meth:`~ShardedGallery.add`
for one row), a :meth:`~ShardedGallery.delete` and a
:meth:`~ShardedGallery.reembed` each bump a version counter once.
Deletes and re-embeds tombstone rows logically (physical rows stay until
:meth:`~ShardedGallery.compact`), and every search reads one immutable
:class:`~repro.retrieval.snapshot.GallerySnapshot` — the caller's, or
the current version's — so each query sees exactly one gallery version
even while writers race.  Placement is round-robin by default or a
deterministic :class:`~repro.retrieval.placement.ConsistentHashRing`
(``placement="hash"``), which makes :meth:`~ShardedGallery.rebalance`
relocate only ``~1/n`` of the rows when the node count changes.
"""

from __future__ import annotations

import itertools
import threading
import time

import networkx as nx
import numpy as np

from repro.errors import DeadlineExceeded, NodeDownError, RetrievalUnavailable
from repro.obs import counter, histogram, span
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.config import ResilienceConfig
from repro.resilience.retry import RetryExecutor
from repro.retrieval.index import FeatureIndex, as_query_matrix, scan_entries
from repro.retrieval.lists import RetrievalEntry
from repro.retrieval.placement import ConsistentHashRing
from repro.retrieval.similarity import SimilarityFn, negative_l2
from repro.retrieval.snapshot import GallerySnapshot

#: Per-node search latencies are sub-millisecond at test scale.
NODE_LATENCY_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0)


def _replication(config: ResilienceConfig | None, num_nodes: int) -> int:
    """Copies per row that ``config`` asks for, capped at the node count."""
    return 1 if config is None else min(int(config.replication), num_nodes)


class DataNode:
    """One storage shard holding a local :class:`~repro.retrieval.protocol.Index`.

    The index implementation is pluggable: by default a brute-force
    :class:`FeatureIndex`, or any factory from the compressed tier
    registry (:mod:`repro.hashindex.tiers`) — the node only relies on
    the shared :class:`~repro.retrieval.protocol.Index` protocol.
    """

    def __init__(self, node_id: str, similarity: SimilarityFn = negative_l2,
                 index_factory=None, position: int = 0) -> None:
        self.node_id = str(node_id)
        self.similarity = similarity
        self.index = FeatureIndex(similarity) if index_factory is None \
            else index_factory(similarity)
        self.position = int(position)
        self.alive = True
        self.search_count = 0

    def __len__(self) -> int:
        return len(self.index)

    def add(self, video_id: str, label: int, feature: np.ndarray) -> None:
        """Store one gallery row on this node."""
        self.index.add(video_id, label, feature)

    def add_batch(self, ids: list[str], labels: list[int],
                  features: np.ndarray) -> None:
        """Store many gallery rows in one pass."""
        self.index.add_batch(ids, labels, features)

    def scan(self, queries: np.ndarray, k: int, rows: int | None = None,
             hidden: np.ndarray | None = None, index=None
             ) -> tuple[np.ndarray, np.ndarray]:
        """One scatter leg over ``(B, d)`` queries: ``(scores, rows)``.

        Raises :class:`NodeDownError` when down; otherwise scans the
        local index (see :class:`~repro.retrieval.protocol.ScanIndex`).
        ``index`` lets the coordinator pin the index object it resolved
        at scatter start, so a concurrent tier swap cannot hand this leg
        a half-built replacement.
        """
        if not self.alive:
            counter("gallery.node_down_errors", node=self.node_id).inc()
            raise NodeDownError(f"node {self.node_id} is down")
        self.search_count += len(queries)
        target = self.index if index is None else index
        return target.scan(queries, k, rows, hidden)

    def search(self, query: np.ndarray, k: int,
               index=None) -> list[RetrievalEntry]:
        """Local top-k search; raises :class:`NodeDownError` when down."""
        query = np.asarray(query, dtype=np.float64).reshape(1, -1)
        return self.search_batch(query, k, index=index)[0]

    def search_batch(self, queries: np.ndarray, k: int,
                     index=None) -> list[list[RetrievalEntry]]:
        """Local top-k for ``(B, d)`` queries in one vectorized pass."""
        target = self.index if index is None else index
        return scan_entries(target, *self.scan(queries, k, index=target))

    def labels_of(self) -> list[int]:
        """All labels stored on this node."""
        return self.index.labels_of()

    def take_down(self) -> None:
        """Simulate a node failure."""
        self.alive = False

    def bring_up(self) -> None:
        """Recover a failed node."""
        self.alive = True


class ShardedGallery:
    """Coordinator over ``num_nodes`` data nodes with scatter/gather merge.

    Rows are assigned to shards round-robin at insertion time (or by a
    consistent-hash ring with ``placement="hash"``); with
    ``resilience.replication = r`` each row additionally lands on the
    next ``r - 1`` nodes.  A search fans out to all live nodes, takes
    each node's local top-k, and merges the partial lists into a global
    top-k (deduplicating replicas with a quorum score vote).  Downed
    nodes are skipped when their shards are covered elsewhere, so
    results degrade gracefully — or stay exact under replication —
    matching how a replicated production system keeps serving under
    partial failure.
    """

    def __init__(self, num_nodes: int = 4,
                 similarity: SimilarityFn = negative_l2,
                 resilience: ResilienceConfig | None = None,
                 index_tier: str = "exact",
                 placement: str = "round-robin") -> None:
        if num_nodes < 1:
            raise ValueError("gallery needs at least one node")
        if placement not in ("round-robin", "hash"):
            raise ValueError(f"unknown placement {placement!r}")
        self.similarity = similarity
        self.nodes = [DataNode(f"node-{i}", similarity, position=i)
                      for i in range(num_nodes)]
        self.placement = placement
        self._ring = ConsistentHashRing(num_nodes) if placement == "hash" \
            else None
        self._version = 0
        self._lock = threading.RLock()
        self._snapshot_cache: GallerySnapshot | None = None
        self._dead_at: dict[str, int] = {}    # rowid -> tombstone version
        self._added_at: dict[str, int] = {}   # rowid -> version added
        self._alias: dict[str, str] = {}      # rowid -> public id, if unequal
        self._rowids: dict[str, list[str]] = {}  # public id -> its rowids
        self._primary_of: dict[str, int] = {}  # rowid -> primary shard
        self._order: list[str] = []           # rowids in insertion order
        self._labels: list[int] = []          # their labels, same order
        self._node_dead: list[set[str]] = [set() for _ in range(num_nodes)]
        self._dead_count = 0
        self._next_shard = 0
        self._shard_rows = [0] * num_nodes
        # Index objects currently installed, pinned as a tuple so
        # readers resolve one coherent set even mid tier-swap.
        self._pinned: tuple = tuple(node.index for node in self.nodes)
        self.index_tier = "exact"
        self.set_index_tier(index_tier)
        self.fault_plan = None
        self.replication = 1
        self.resilience: ResilienceConfig | None = None
        self._breakers: dict[str, CircuitBreaker] = {}
        self._retries: dict[str, RetryExecutor] = {}
        self.set_resilience(resilience)
        self._rebuild_topology()

    def _rebuild_topology(self) -> None:
        topology = nx.star_graph(len(self.nodes))
        relabel = {0: "coordinator"}
        relabel.update({i + 1: node.node_id
                        for i, node in enumerate(self.nodes)})
        self.topology = nx.relabel_nodes(topology, relabel)

    # -------------------------------------------------------------- #
    # Index-tier configuration
    # -------------------------------------------------------------- #
    def set_index_tier(self, tier: str) -> None:
        """Switch every node's local index to ``tier``.

        Rows already stored on the nodes are re-ingested into the new
        indexes (tombstoned rows are dropped, doubling as a compaction);
        a compressed index builds its payload per watermark, when a
        scan first reads it.  Switching
        to the tier already in place is a no-op; a switch is one version
        step.

        The swap is atomic with respect to readers: every new index is
        fully built *before* any node's reference is replaced, and
        in-flight searches keep the complete old index set their
        snapshot pinned, so no query ever observes a half-built index
        or a mixed-tier scatter.
        """
        # Imported lazily: repro.hashindex depends on retrieval
        # submodules, so a module-level import would be circular during
        # package initialization.
        from repro.hashindex.tiers import resolve_index_tier

        resolved = str(tier).strip().lower()
        if resolved == self.index_tier:
            return
        factory = resolve_index_tier(resolved)
        with self._lock:
            self._install([self._reingest(position, factory)
                           for position in range(len(self.nodes))])
            self.index_tier = resolved
            self._bump()
        counter("gallery.index_tier_switches", tier=resolved).inc()

    def _reingest(self, position: int, factory):
        """A fresh ``factory`` index holding node ``position``'s
        untombstoned rows, in storage order.  Caller holds the lock."""
        index = factory(self.similarity)
        index.add_batch(
            *self.nodes[position].index.rows(self._node_dead[position]))
        return index

    def _install(self, indexes: list) -> None:
        """Publish fully built per-node ``indexes`` as the pinned set.

        A node whose index is replaced drops its tombstones with it (the
        rebuild left them out).  Caller holds the lock.
        """
        for position, (node, index) in enumerate(zip(self.nodes, indexes)):
            if node.index is not index:
                node.index = index
                self._node_dead[position] = set()
        self._pinned = tuple(indexes)

    # -------------------------------------------------------------- #
    # Resilience configuration
    # -------------------------------------------------------------- #
    def set_resilience(self, config: ResilienceConfig | None) -> None:
        """(Re)configure retry/breaker/replication behaviour.

        Replication is a *placement* property: it can only change while
        the gallery is still empty.
        """
        replication = _replication(config, len(self.nodes))
        if self._order and replication != self.replication:
            raise ValueError(
                "cannot change replication on a populated gallery "
                f"(current r={self.replication}, requested r={replication})")
        self.resilience = config
        self.replication = replication
        self._breakers = {}
        self._retries = {}
        if config is not None:
            if config.breaker is not None:
                self._breakers = {
                    node.node_id: CircuitBreaker(config.breaker,
                                                 node_id=node.node_id)
                    for node in self.nodes
                }
            if config.retry is not None:
                self._retries = {
                    node.node_id: RetryExecutor(config.retry,
                                                node_id=node.node_id)
                    for node in self.nodes
                }
        # Per-node scatter plan, precomputed so the hot path does no
        # dict lookups: [(node, breaker | None, retry | None), ...].
        self._node_plan = [
            (node, self._breakers.get(node.node_id),
             self._retries.get(node.node_id))
            for node in self.nodes
        ]

    def __len__(self) -> int:
        """Live logical gallery size (replicas and tombstones excluded)."""
        return len(self._order) - self._dead_count

    @property
    def physical_rows(self) -> int:
        """Stored rows across every shard, replicas and tombstones included."""
        return sum(len(node) for node in self.nodes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def live_nodes(self) -> list[DataNode]:
        return [node for node in self.nodes if node.alive]

    @property
    def version(self) -> int:
        """Monotonic counter, bumped once per ingest call, delete,
        re-embed, tier switch, compaction or rebalance."""
        return self._version

    def _replica_nodes(self, primary: int) -> list[int]:
        """Node indexes storing rows whose primary shard is ``primary``."""
        count = len(self.nodes)
        return [(primary + t) % count for t in range(self.replication)]

    def _bump(self) -> None:
        self._version += 1
        self._snapshot_cache = None

    # -------------------------------------------------------------- #
    # Ingest and mutation
    # -------------------------------------------------------------- #
    def add(self, video_id: str, label: int, feature: np.ndarray) -> None:
        """Insert one row: :meth:`add_batch` of one."""
        self.add_batch([video_id], [label], [feature])

    def add_batch(self, ids: list[str], labels: list[int],
                  features: np.ndarray) -> None:
        """Insert many rows (and their replicas) in one version step.

        Rows land on exactly the shards sequential :meth:`add` calls
        would pick (round-robin from the current cursor, or the hash
        ring), but each shard ingests its slice in one ``add_batch``.
        Like ``zip()``, extra entries in any argument are ignored.  An
        id that is already live, or that appears twice in the call,
        raises :class:`ValueError` before any row is written.
        """
        count = min(len(ids), len(labels), len(features))
        if count == 0:
            return
        with self._lock:
            self._ingest([str(video_id) for video_id in ids[:count]],
                         [int(label) for label in labels[:count]],
                         features[:count])
            counter("gallery.adds").inc(count)
            self._bump()

    def _ingest(self, public_ids: list[str], labels: list[int],
                features) -> None:
        """Place, write and record new rows; caller holds the lock and
        bumps the version once afterwards."""
        seen: set[str] = set()
        for public_id in public_ids:
            if public_id in seen:
                raise ValueError(
                    f"video {public_id!r} appears twice in one ingest")
            generations = self._rowids.get(public_id)
            if generations and generations[-1] not in self._dead_at:
                raise ValueError(
                    f"video {public_id!r} is already live; use reembed()")
            seen.add(public_id)
        version = self._version + 1
        rowids = []
        for public_id in public_ids:
            rowid = self._mint(public_id)
            self._added_at[rowid] = version
            rowids.append(rowid)
        start = self._next_shard
        if self._ring is None:
            primaries = [(start + row) % len(self.nodes)
                         for row in range(len(rowids))]
            self._next_shard = (start + len(rowids)) % len(self.nodes)
        else:
            primaries = [self._ring.assign(public_id)
                         for public_id in public_ids]
        self._write(self.nodes, rowids, labels, features, primaries,
                    self.replication)
        for public_id, rowid, primary in zip(public_ids, rowids, primaries):
            self._rowids.setdefault(public_id, []).append(rowid)
            if rowid != public_id:
                self._alias[rowid] = public_id
            self._primary_of[rowid] = primary
            self._shard_rows[primary] += 1
        self._order.extend(rowids)
        self._labels.extend(labels)

    def _mint(self, public_id: str) -> str:
        """A fresh rowid for ``public_id``'s next generation.

        The first generation is the public id itself, later ones
        ``{id}@g{n}``.  A candidate some other row already holds (a
        different video named ``clip@g1``, say) is skipped, so every
        rowid names exactly one row and maps back to one public id.
        """
        generation = len(self._rowids.get(public_id, ()))
        rowid = public_id if generation == 0 \
            else f"{public_id}@g{generation}"
        while rowid in self._added_at:
            generation += 1
            rowid = f"{public_id}@g{generation}"
        return rowid

    def _write(self, nodes: list[DataNode], rowids: list[str],
               labels: list[int], features, primaries: list[int],
               replication: int) -> None:
        """Append rows to their primary shard and its ``replication - 1``
        successors on ``nodes``: one ``add_batch`` per node, rows in
        call order."""
        features = np.asarray(features, dtype=np.float64)
        per_node: list[list[int]] = [[] for _ in nodes]
        for row, primary in enumerate(primaries):
            for tail in range(replication):
                per_node[(primary + tail) % len(nodes)].append(row)
        for node, rows in zip(nodes, per_node):
            if rows:
                node.add_batch([rowids[row] for row in rows],
                               [labels[row] for row in rows], features[rows])

    def _live_row(self, public_id: str) -> str:
        """``public_id``'s live rowid; :class:`KeyError` if it has none."""
        rowids = self._rowids.get(public_id)
        if not rowids or rowids[-1] in self._dead_at:
            raise KeyError(f"video {public_id!r} is not live")
        return rowids[-1]

    def _tombstone(self, rowid: str) -> None:
        primary = self._primary_of[rowid]
        self._dead_at[rowid] = self._version + 1
        for node_index in self._replica_nodes(primary):
            self._node_dead[node_index].add(rowid)
        self._shard_rows[primary] -= 1
        self._dead_count += 1

    def delete(self, video_id: str) -> None:
        """Tombstone a live video; physical rows remain until compaction."""
        with self._lock:
            self._tombstone(self._live_row(str(video_id)))
            counter("gallery.deletes").inc()
            self._bump()

    def reembed(self, video_id: str, label: int,
                feature: np.ndarray) -> None:
        """Replace a live video's feature row in one atomic version step.

        The old generation is tombstoned and a new aliased row inserted;
        snapshots taken before the call keep seeing the old feature,
        snapshots taken after see only the new one.
        """
        with self._lock:
            public_id = str(video_id)
            self._tombstone(self._live_row(public_id))
            self._ingest([public_id], [int(label)], [feature])
            counter("gallery.reembeds").inc()
            self._bump()

    def snapshot(self) -> GallerySnapshot:
        """An immutable view of the current gallery version."""
        snap = self._snapshot_cache
        if snap is not None and snap.version == self._version:
            return snap
        with self._lock:
            snap = self._snapshot_cache
            if snap is not None and snap.version == self._version:
                return snap
            indexes = self._pinned
            snap = GallerySnapshot(
                version=self._version,
                indexes=indexes,
                watermarks=tuple(len(index) for index in indexes),
                dead_at=self._dead_at,
                alias=self._alias,
                live_count=len(self),
                tier=self.index_tier,
            )
            self._snapshot_cache = snap
            return snap

    def is_visible(self, video_id: str, version: int) -> bool:
        """Whether ``video_id`` had a live generation at ``version``."""
        for rowid in self._rowids.get(str(video_id), ()):
            if self._added_at[rowid] > version:
                continue
            dead = self._dead_at.get(rowid)
            if dead is None or dead > version:
                return True
        return False

    def live_ids(self) -> list[str]:
        """Public ids of all live videos, in insertion order."""
        with self._lock:
            return [self._alias.get(rowid, rowid) for rowid in self._order
                    if rowid not in self._dead_at]

    # -------------------------------------------------------------- #
    # Compaction & rebalancing
    # -------------------------------------------------------------- #
    def compact(self, node_indexes: list[int] | None = None) -> int:
        """Rebuild shards from live rows only; returns rows dropped.

        Each rebuilt index is fully constructed before its node's
        reference is swapped, and the pinned tuple is replaced last, so
        readers holding older snapshots keep searching the uncompacted
        indexes they pinned.
        """
        from repro.hashindex.tiers import resolve_index_tier

        with self._lock:
            candidates = range(len(self.nodes)) if node_indexes is None \
                else node_indexes
            targets = [index for index in candidates if self._node_dead[index]]
            if not targets:
                return 0
            factory = resolve_index_tier(self.index_tier)
            indexes = [node.index for node in self.nodes]
            for position in targets:
                indexes[position] = self._reingest(position, factory)
            dropped = sum(len(self.nodes[position]) - len(indexes[position])
                          for position in targets)
            self._install(indexes)
            counter("gallery.compactions").inc(len(targets))
            counter("gallery.compacted_rows").inc(dropped)
            self._bump()
            return dropped

    def maybe_compact(self, policy) -> int:
        """Compact shards the :class:`CompactionPolicy` flags; rows dropped."""
        if policy is None:
            return 0
        targets = [position for position, node in enumerate(self.nodes)
                   if policy.should_compact(len(node.index),
                                            len(self._node_dead[position]))]
        if not targets:
            return 0
        return self.compact(targets)

    def rebalance(self, num_nodes: int) -> int:
        """Re-shard live rows onto ``num_nodes`` nodes; returns rows moved.

        Requires ``placement="hash"``: the new ring agrees with the old
        one on all but ``~1/num_nodes`` of the keys, so only that slice
        relocates.  Rows are written at the replication the config asks
        for on ``num_nodes`` nodes, so the result equals a gallery built
        fresh there.  Outstanding snapshots keep their old index set and
        remain exact as long as the node count did not shrink.
        """
        if self._ring is None:
            raise RuntimeError("rebalance() requires placement='hash'")
        if num_nodes < 1:
            raise ValueError("gallery needs at least one node")
        from repro.hashindex.tiers import resolve_index_tier

        replication = _replication(self.resilience, num_nodes)
        with self._lock:
            new_ring = self._ring.with_nodes(num_nodes)
            features: dict[str, np.ndarray] = {}
            for position, node in enumerate(self.nodes):
                ids, _, rows = node.index.rows(self._node_dead[position])
                for rowid, feature in zip(ids, rows):
                    features.setdefault(rowid, feature)
            live = [rowid for rowid in self._order
                    if rowid not in self._dead_at]
            labels = [label for rowid, label
                      in zip(self._order, self._labels)
                      if rowid not in self._dead_at]
            primaries = [new_ring.assign(self._alias.get(rowid, rowid))
                         for rowid in live]
            moved = sum(primary != self._primary_of[rowid]
                        for rowid, primary in zip(live, primaries))
            factory = resolve_index_tier(self.index_tier)
            nodes = [DataNode(f"node-{i}", self.similarity, factory,
                              position=i) for i in range(num_nodes)]
            self._write(nodes, live, labels,
                        [features[rowid] for rowid in live], primaries,
                        replication)
            self.nodes = nodes
            self._ring = new_ring
            self._shard_rows = [primaries.count(primary)
                                for primary in range(num_nodes)]
            self._primary_of = dict(zip(live, primaries))
            self._node_dead = [set() for _ in range(num_nodes)]
            self._dead_count = 0
            self._order = live
            self._labels = labels
            self._pinned = tuple(node.index for node in nodes)
            self.replication = replication
            self.set_resilience(self.resilience)
            self._rebuild_topology()
            counter("gallery.rebalances").inc()
            counter("gallery.rebalance_moved_rows").inc(moved)
            self._bump()
            return moved

    # -------------------------------------------------------------- #
    # Scatter/gather search
    # -------------------------------------------------------------- #
    def search(self, query: np.ndarray, k: int,
               snapshot: GallerySnapshot | None = None
               ) -> list[RetrievalEntry]:
        """Scatter/gather top-k across live nodes, best first.

        The ``B = 1`` case of :meth:`search_batch`.
        """
        query = np.asarray(query, dtype=np.float64).reshape(1, -1)
        return self.search_batch(query, k, snapshot)[0]

    def search_batch(self, queries: np.ndarray, k: int,
                     snapshot: GallerySnapshot | None = None,
                     query_ids=None) -> list[list[RetrievalEntry]]:
        """Scatter/gather top-k for a ``(B, d)`` query matrix.

        A snapshot read of ``snapshot`` (default: current version): each
        node scans the batch once, :meth:`_scatter` picks each row's
        answering nodes, :meth:`_merge` merges every row at once.
        ``query_ids`` (``0..B-1`` by default) key the :attr:`fault_plan`
        draws, so results equal B :meth:`search` calls with the same ids.
        The first uncovered row raises
        :class:`~repro.errors.RetrievalUnavailable` carrying the rows
        before it (``served``, ``served_count``).
        """
        queries = as_query_matrix(queries)
        batch = queries.shape[0]
        snap = snapshot or self.snapshot()
        with span("gallery.search_batch", k=int(k), batch=batch):
            partials, error = self._scatter(
                lambda node: self._snapshot_search_batch(
                    node, queries, k, snap),
                range(batch) if query_ids is None else list(query_ids),
                keyed=query_ids is not None)
            served = batch if error is None else error.served_count
            merged = self._merge(partials, k, served, snap)
            counter("gallery.searches").inc(served)
            if error is not None:
                error.served = merged
                raise error
            return merged

    def _snapshot_search_batch(self, node: DataNode, queries: np.ndarray,
                               k: int, snap: GallerySnapshot) -> tuple:
        """One node's scatter leg: ``(index, scores, rows)``.

        Scans the node's index pinned by ``snap`` up to its watermark,
        with its tombstone mask.
        """
        position = node.position
        if position >= len(snap.indexes):
            # The gallery grew past the snapshot's node count (rebalance
            # while this query was in flight); new nodes hold no rows
            # visible at the snapshot's version.
            return (node.index, *node.scan(queries, k, rows=0))
        index = snap.indexes[position]
        return (index, *node.scan(queries, k, snap.watermarks[position],
                                  snap.hidden(position), index=index))

    #: The scalar leg's old name, which ``e2ebench/layers.py`` wraps.
    _snapshot_search_one = _snapshot_search_batch

    # -------------------------------------------------------------- #
    # Scatter
    # -------------------------------------------------------------- #
    def _scatter(self, call, ids, keyed: bool = False) -> tuple:
        """Decide which nodes answer each row: ``(partials, error)``.

        With a fault plan or a downed node, rows are walked in id order
        (draws, retries, breaker records, hedge, coverage) until the
        first uncovered one; otherwise one pass stands for every row.
        Without a resilience config an uncovered row degrades unless no
        node answered it.  With ``keyed`` ids a breaker counts a re-sent
        id once.  See DESIGN.md §10.
        """
        plan, config = self.fault_plan, self.resilience
        per_row = plan is not None or \
            not all(node.alive for node in self.nodes)
        legs: dict[int, tuple] = {}
        answered: dict[int, list] = {}  # position -> served rows, per row
        error = None
        for row in range(len(ids)) if per_row else (None,):
            query = None if row is None else ids[row]
            key = query if keyed else None
            weight = len(ids) if row is None else 1
            latencies: dict[int, tuple[float, int]] = {}
            for position, (node, breaker, retry) in enumerate(self._node_plan):
                if breaker is not None and not breaker.allow():
                    counter("resilience.breaker_short_circuits",
                            node=node.node_id).inc(weight)
                    continue
                try:
                    if retry is None:
                        latencies[position] = self._attempt(
                            position, call, query, legs)
                    else:
                        tries = itertools.count(1)
                        latencies[position] = retry.run(
                            lambda: self._attempt(position, call, query,
                                                  legs, next(tries)),
                            query or 0)
                except (NodeDownError, DeadlineExceeded):
                    if breaker is not None:
                        breaker.record_failure(key)
                    counter("gallery.node_skipped",
                            node=node.node_id).inc(weight)
                    continue
                if breaker is not None:
                    breaker.record_success(key)
                histogram("gallery.node_latency_s",
                          buckets=NODE_LATENCY_BUCKETS,
                          node=node.node_id).observe(latencies[position][0])
            hedge = None if config is None else config.hedge_after_s
            for position in sorted(latencies) if hedge is not None else ():
                # Hedged reads: drop a slow node whose shards faster
                # replicas already cover (their responses are the hedge).
                if latencies[position][0] <= hedge:
                    continue
                node_id = self.nodes[position].node_id
                if not self._uncovered(set(latencies) - {position}):
                    del latencies[position]
                    counter("resilience.hedge_wins", node=node_id).inc(weight)
                else:
                    counter("resilience.hedge_losses", node=node_id).inc(weight)
            missing = self._uncovered(set(latencies))
            if missing and (config.on_data_loss == "raise" if config
                            else not latencies):
                counter("resilience.uncovered_queries").inc()
                error = RetrievalUnavailable(
                    f"no live replica for shard(s) {missing} "
                    f"at query {query}")
                error.served_count = row or 0
                break
            if missing:
                counter("resilience.uncovered_queries").inc(weight)
                counter("gallery.degraded_searches").inc(weight)
            elif len(latencies) < len(self.nodes):
                counter("resilience.degraded_covered_queries").inc(weight)
            if row is None:  # every row met the nodes in ``latencies``
                return [legs[position][0] for position in sorted(latencies)], None
            for position, (_, attempt) in latencies.items():
                answered.setdefault(position, []).append((row, attempt))
        served = len(ids) if error is None else error.served_count
        partials = []
        for position in sorted(answered):
            index, scores, found = legs[position][0]
            scores, found = scores[:served].copy(), found[:served].copy()
            blank = np.ones(served, dtype=bool)
            for row, attempt in answered[position]:
                blank[row] = False
                if plan is not None:
                    scores[row] = plan.transform(self.nodes[position].node_id,
                                                 scores[row], ids[row], attempt)
            scores[blank], found[blank] = -np.inf, -1
            partials.append((index, scores, found))
        return partials, error

    def _attempt(self, position: int, call, query: int | None, legs: dict,
                 attempt: int = 1) -> tuple[float, int]:
        """Node ``position``'s ``attempt``-th try at row ``query``
        (``None``: every row) under the deadline: ``(latency, attempt)``.
        A retry redraws the row's faults and reuses the batch scan in
        ``legs``.
        """
        node, plan = self.nodes[position], self.fault_plan
        injected = plan.on_attempt(node.node_id, query, attempt) \
            if plan is not None and node.alive else 0.0
        if position not in legs:
            start = time.perf_counter()
            legs[position] = (call(node), time.perf_counter() - start)
        latency = legs[position][1] + injected
        deadline = None if self.resilience is None \
            else self.resilience.deadline_s
        if deadline is not None and latency > deadline:
            counter("resilience.deadline_exceeded", node=node.node_id).inc()
            raise DeadlineExceeded(
                f"node {node.node_id} answered in {latency:.4f}s "
                f"(> deadline {deadline}s)")
        return latency, attempt

    def _uncovered(self, available: set[int]) -> list[int]:
        """Non-empty shards with no replica in ``available``."""
        if len(available) == len(self.nodes):
            return []  # every node answered — trivially covered
        return [primary for primary, rows in enumerate(self._shard_rows)
                if rows and not any(replica in available for replica
                                    in self._replica_nodes(primary))]

    # -------------------------------------------------------------- #
    # Merge
    # -------------------------------------------------------------- #
    def _merge(self, partials: list[tuple], k: int, batch: int,
               snap: GallerySnapshot) -> list[list[RetrievalEntry]]:
        """Merge per-node ``(index, scores, rows)`` scans into global top-k.

        One stable argsort per query over the node-order concatenation
        of the returned scores ranks every candidate best first — the
        order ``heapq.merge`` gives sorted per-node lists, and still
        best first when a fault plan corrupted a node's scores.
        Entries are built only for the survivors, with snapshot aliases
        mapped back to public ids.

        With replication the same row may arrive from several replicas;
        the merge deduplicates by video id and resolves score
        disagreements (a corrupt replica) by majority vote, and a
        disagreement increments ``resilience.quorum_mismatches``.  A
        tied vote takes the lowest score, so a corrupt copy can never
        lift a row above the honest copy it ties with: a row of the
        true top-k is returned by every live replica holding it, so at
        r ≥ 3 with one corrupt node it always has an honest majority.
        """
        if not partials:
            return [[] for _ in range(batch)]
        owners = [index for index, scores, _ in partials
                  for _ in range(scores.shape[1])]
        scores = np.concatenate([part[1] for part in partials], axis=1)
        found = np.concatenate([part[2] for part in partials], axis=1)
        order = np.argsort(-scores, axis=1, kind="stable")
        if self.replication == 1:
            order = order[:, :int(k)]
        lines = np.arange(batch)[:, None]
        alias = snap.alias
        merged = []
        for columns, row_scores, row_ids in zip(
                order.tolist(), scores[lines, order].tolist(),
                found[lines, order].tolist()):
            entries = []
            for column, score, row in zip(columns, row_scores, row_ids):
                if row < 0:
                    continue  # padding of a node with fewer results
                index = owners[column]
                rowid = index._ids[row]
                entries.append(RetrievalEntry(alias.get(rowid, rowid),
                                              index._labels[row], score))
            merged.append(entries if self.replication == 1
                          else self._quorum(entries, k))
        return merged

    @staticmethod
    def _quorum(entries: list[RetrievalEntry],
                k: int) -> list[RetrievalEntry]:
        """Deduplicate best-first replica entries by majority score vote."""
        votes: dict[str, dict[float, int]] = {}
        first: dict[str, tuple[int, RetrievalEntry]] = {}
        for position, entry in enumerate(entries):
            scores = votes.setdefault(entry.video_id, {})
            scores[entry.score] = scores.get(entry.score, 0) + 1
            if entry.video_id not in first:
                first[entry.video_id] = (position, entry)
        resolved = []
        for video_id, scores in votes.items():
            if len(scores) > 1:
                counter("resilience.quorum_mismatches").inc()
            score = max(scores.items(),
                        key=lambda item: (item[1], -item[0]))[0]
            position, entry = first[video_id]
            resolved.append((-score, position,
                             RetrievalEntry(video_id, entry.label, score)))
        resolved.sort(key=lambda item: (item[0], item[1]))
        return [entry for _, _, entry in resolved[: int(k)]]

    def labels_of(self) -> list[int]:
        """All live logical labels, in insertion order (replicas deduped)."""
        if not self._dead_count:
            return list(self._labels)
        return [label for rowid, label in zip(self._order, self._labels)
                if rowid not in self._dead_at]
