"""Regression: a tier swap landing mid-scatter must stay invisible.

``ShardedGallery.set_index_tier`` used to re-index node by node, so a
``search_batch`` already in flight could read node-0 from the old tier
and node-1 from the half-installed new one (or from an index still
being built).  The fix pins the complete index set at scatter start
(``gallery._pinned``) and builds every replacement index fully before
swapping any node's reference — these tests drive a swap at the exact
mid-scatter instant through the fault-plan hook and fail against the
pre-fix behaviour.
"""

import numpy as np

from repro.qa.generators import draw_clustered_gallery
from repro.qa.invariants import check_snapshot_consistency
from repro.retrieval import ShardedGallery


def build_gallery(seed=3, rows=30, nodes=3, dim=8):
    rng = np.random.default_rng(seed)
    ids, labels, features = draw_clustered_gallery(rng, rows, dim)
    gallery = ShardedGallery(num_nodes=nodes)
    for video_id, label, feature in zip(ids, labels, features):
        gallery.add(video_id, label, feature)
    return gallery, ids, features


class MidScatterSwap:
    """Fault injector that swaps the index tier on node-1's scatter leg.

    By the time node-1 is searched, node-0's leg has already run — so
    the swap lands *inside* one scatter, after some legs and before
    others, exactly the interleaving the pinned-tuple fix exists for.
    """

    def __init__(self, gallery: ShardedGallery, tier: str) -> None:
        self.gallery = gallery
        self.tier = tier
        self.fired = False
        self.pinned_rows_at_swap: list[int] | None = None
        self.pinned_is_new: bool | None = None

    def on_attempt(self, node_id: str, query: int, attempt: int = 1) -> float:
        if node_id == "node-1" and not self.fired:
            self.fired = True
            old = self.gallery._pinned
            self.gallery.set_index_tier(self.tier)
            # Observed at the first instant the swap is visible: the
            # whole tuple must already be new, fully-built indexes.
            self.pinned_is_new = all(
                new is not previous
                for new, previous in zip(self.gallery._pinned, old))
            self.pinned_rows_at_swap = [len(index)
                                        for index in self.gallery._pinned]
        return 0.0

    def transform(self, node_id, scores, query, attempt=1):
        return scores


def install(gallery: ShardedGallery, injector) -> None:
    gallery.fault_plan = injector


class TestTierSwapDuringScatter:
    def test_inflight_search_batch_uses_the_pinned_tier(self, monkeypatch):
        gallery, ids, features = build_gallery()
        queries = np.stack([features[0], features[9], features[17]])
        baseline = gallery.search_batch(queries, k=8)
        old_pinned = gallery._pinned

        seen_indexes = []
        original = ShardedGallery._snapshot_search_batch

        def recording(self, node, batch, k, snap):
            leg = original(self, node, batch, k, snap)
            seen_indexes.append(leg[0])  # the index this leg scanned
            return leg

        monkeypatch.setattr(ShardedGallery, "_snapshot_search_batch",
                            recording)
        injector = MidScatterSwap(gallery, "hamming")
        install(gallery, injector)
        raced = gallery.search_batch(queries, k=8)
        install(gallery, None)

        assert injector.fired
        assert gallery.index_tier == "hamming"
        # Every scatter leg — including the ones after the swap landed —
        # searched the index set pinned at scatter start.
        assert len(seen_indexes) == len(gallery.nodes)
        for position, index in enumerate(seen_indexes):
            assert index is old_pinned[position]
        for before, after in zip(baseline, raced):
            assert [(e.video_id, e.score) for e in before] == \
                [(e.video_id, e.score) for e in after]

    def test_swap_becomes_visible_only_fully_built(self):
        gallery, ids, features = build_gallery()
        rows_per_shard = [len(node) for node in gallery.nodes]
        injector = MidScatterSwap(gallery, "hamming")
        install(gallery, injector)
        gallery.search_batch(np.stack([features[0], features[4]]), k=5)
        install(gallery, None)
        assert injector.pinned_is_new is True
        assert injector.pinned_rows_at_swap == rows_per_shard

    def test_next_search_adopts_the_new_tier(self):
        gallery, ids, features = build_gallery()
        injector = MidScatterSwap(gallery, "hamming")
        install(gallery, injector)
        gallery.search_batch(np.stack([features[0]]), k=4)
        install(gallery, None)
        fresh = gallery.search(features[2], k=4)
        assert gallery._pinned == tuple(node.index for node in gallery.nodes)
        assert fresh[0].video_id == ids[2]

    def test_snapshot_readers_keep_the_old_tier(self):
        gallery, ids, features = build_gallery()
        gallery.delete(ids[0])
        snap = gallery.snapshot()
        before = gallery.search(features[3], k=6, snapshot=snap)
        gallery.set_index_tier("hamming")
        assert gallery.version == snap.version + 1  # a swap is one step
        after = gallery.search(features[3], k=6, snapshot=snap)
        assert snap.indexes == tuple(
            index for index in snap.indexes)  # tuple identity retained
        assert [(e.video_id, e.score) for e in before] == \
            [(e.video_id, e.score) for e in after]
        check_snapshot_consistency(gallery, snap, after, k=6)
