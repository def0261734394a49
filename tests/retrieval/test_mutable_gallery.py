"""Online-gallery semantics: add/delete/re-embed, snapshots, compaction.

The churn contract under test: every write (an ingest call, a delete,
a re-embed) bumps the gallery version once, readers pin an immutable
snapshot and keep seeing exactly that version while writers race
ahead, tombstones never resurrect, and compaction/rebalancing are
invisible to retrieval results.
"""

import itertools

import numpy as np
import pytest

from repro.hashindex import CompactionPolicy
from repro.qa.generators import draw_clustered_gallery
from repro.qa.invariants import check_snapshot_consistency
from repro.resilience import ResilienceConfig
from repro.retrieval import ShardedGallery


def build_gallery(seed=0, rows=24, nodes=3, dim=8, placement="round-robin"):
    rng = np.random.default_rng(seed)
    ids, labels, features = draw_clustered_gallery(rng, rows, dim)
    gallery = ShardedGallery(num_nodes=nodes, placement=placement)
    for video_id, label, feature in zip(ids, labels, features):
        gallery.add(video_id, label, feature)
    return gallery, ids, features, rng


class TestMutationBasics:
    def test_delete_hides_logically_keeps_physically(self):
        gallery, ids, features, _ = build_gallery()
        assert gallery.live_ids() == list(ids)
        before, ingested = gallery.physical_rows, gallery.version
        gallery.delete(ids[3])
        assert len(gallery) == len(ids) - 1
        assert gallery.physical_rows == before
        assert ids[3] not in gallery.live_ids()
        assert gallery.version == ingested + 1
        hits = gallery.search(features[3], k=len(ids))
        assert ids[3] not in {entry.video_id for entry in hits}

    def test_delete_then_readd_same_id(self):
        gallery, ids, features, _ = build_gallery()
        gallery.delete(ids[0])
        gallery.add(ids[0], 7, features[0] + 1.0)
        assert ids[0] in gallery.live_ids()
        hits = gallery.search(features[0] + 1.0, k=3)
        assert hits[0].video_id == ids[0]
        assert hits[0].label == 7

    def test_reembed_is_one_atomic_version_step(self):
        gallery, ids, features, _ = build_gallery()
        old_snap = gallery.snapshot()
        moved = features[5] + 10.0
        gallery.reembed(ids[5], 99, moved)
        assert gallery.version == old_snap.version + 1
        assert len(gallery) == len(ids)
        # New readers see only the new feature, under the public id.
        hits = gallery.search(moved, k=2)
        assert hits[0].video_id == ids[5] and hits[0].label == 99
        # Readers pinned before the re-embed see only the old row.
        old_hits = gallery.search(features[5], k=1, snapshot=old_snap)
        assert old_hits[0].video_id == ids[5]
        assert old_hits[0].label != 99

    def test_mutation_error_paths(self):
        gallery, ids, features, _ = build_gallery()
        with pytest.raises(KeyError):
            gallery.delete("no-such-video")
        with pytest.raises(KeyError):
            gallery.reembed("no-such-video", 0, features[0])
        with pytest.raises(ValueError, match="already live"):
            gallery.add(ids[0], 1, features[0])
        gallery.delete(ids[0])
        with pytest.raises(KeyError):
            gallery.delete(ids[0])  # tombstones do not delete twice


class TestSnapshotConsistency:
    def test_pinned_snapshot_survives_later_mutations(self):
        gallery, ids, features, rng = build_gallery(rows=18)
        snap = gallery.snapshot()
        query = features[2]
        pinned_before = gallery.search(query, k=6, snapshot=snap)
        gallery.delete(ids[2])
        gallery.add("late-arrival", 50, query + 0.001)
        gallery.reembed(ids[4], 51, rng.normal(size=query.shape))
        pinned_after = gallery.search(query, k=6, snapshot=snap)
        assert [(e.video_id, e.score) for e in pinned_before] == \
            [(e.video_id, e.score) for e in pinned_after]
        check_snapshot_consistency(gallery, snap, pinned_after, k=6)
        fresh = gallery.search(query, k=6)
        fresh_ids = {entry.video_id for entry in fresh}
        assert ids[2] not in fresh_ids
        assert "late-arrival" in fresh_ids
        check_snapshot_consistency(gallery, gallery.snapshot(), fresh, k=6)

    def test_snapshot_never_shows_rows_from_the_future(self):
        gallery, ids, features, _ = build_gallery(rows=10)
        snap = gallery.snapshot()
        probe = features[0] + 0.0005
        gallery.add("future-row", 60, probe)
        hits = gallery.search(probe, k=4, snapshot=snap)
        assert "future-row" not in {entry.video_id for entry in hits}
        check_snapshot_consistency(gallery, snap, hits, k=4)


class TestCompaction:
    def test_compact_drops_tombstones_without_changing_results(self):
        gallery, ids, features, _ = build_gallery(rows=20)
        for victim in ids[:6]:
            gallery.delete(victim)
        query = features[10]
        before = gallery.search(query, k=8)
        physical = gallery.physical_rows
        dropped = gallery.compact()
        assert dropped == 6
        assert gallery.physical_rows == physical - 6
        after = gallery.search(query, k=8)
        assert [(e.video_id, e.score) for e in before] == \
            [(e.video_id, e.score) for e in after]

    def test_maybe_compact_respects_policy_thresholds(self):
        gallery, ids, _, _ = build_gallery(rows=20)
        strict = CompactionPolicy(min_dead_fraction=0.9, min_dead_rows=50)
        gallery.delete(ids[0])
        assert gallery.maybe_compact(strict) == 0
        eager = CompactionPolicy(min_dead_fraction=0.01, min_dead_rows=1)
        assert gallery.maybe_compact(eager) == 1
        assert gallery.maybe_compact(eager) == 0  # nothing left to drop

    def test_old_snapshot_still_reads_after_compaction(self):
        gallery, ids, features, _ = build_gallery(rows=16)
        snap = gallery.snapshot()
        for victim in ids[:5]:
            gallery.delete(victim)
        gallery.compact()
        hits = gallery.search(features[1], k=5, snapshot=snap)
        # The pinned snapshot predates the deletes: the victims are
        # still visible through the old index objects it captured.
        assert ids[1] in {entry.video_id for entry in hits}
        check_snapshot_consistency(gallery, snap, hits, k=5)


class TestRebalance:
    def test_rebalance_moves_a_bounded_slice(self):
        gallery, ids, features, _ = build_gallery(
            rows=40, nodes=4, placement="hash")
        query = features[7]
        before = gallery.search(query, k=10)
        moved = gallery.rebalance(5)
        assert 0 < moved <= len(ids) // 2
        assert gallery.num_nodes == 5
        after = gallery.search(query, k=10)
        assert [(e.video_id, e.score) for e in before] == \
            [(e.video_id, e.score) for e in after]

    def test_grown_gallery_takes_the_config_replication(self):
        # r = 3 on 2 nodes runs at r = 2.  Rebalancing onto 4 nodes used
        # to install the new nodes and then raise "cannot change
        # replication", leaving a gallery that could not search.
        config = ResilienceConfig(replication=3, retry=None, breaker=None)
        ids, labels, features = draw_clustered_gallery(
            np.random.default_rng(6), 6, 8)
        gallery = ShardedGallery(num_nodes=2, placement="hash",
                                 resilience=config)
        gallery.add_batch(ids, labels, features)
        assert gallery.replication == 2
        version = gallery.version
        gallery.rebalance(4)
        assert (gallery.num_nodes, gallery.replication) == (4, 3)
        assert gallery.version == version + 1
        fresh = ShardedGallery(num_nodes=4, placement="hash",
                               resilience=config)
        fresh.add_batch(ids, labels, features)
        exact = [fresh.search(query, k=6) for query in features]
        assert [gallery.search(query, k=6) for query in features] == exact
        for down in itertools.combinations(gallery.nodes, 2):
            for node in down:
                node.take_down()
            assert [gallery.search(query, k=6) for query in features] == exact
            for node in down:
                node.bring_up()

    def test_rebalance_requires_hash_placement(self):
        gallery, _, _, _ = build_gallery()
        with pytest.raises(RuntimeError, match="hash"):
            gallery.rebalance(5)


def _pairs(entries):
    return [(entry.video_id, entry.label) for entry in entries]


class TestIngestIds:
    @pytest.mark.parametrize("reembed_first", [False, True])
    def test_reembed_never_collides_with_a_lookalike_id(self, reembed_first):
        # Re-embedding ``clip`` used to mint the row id ``clip@g1`` even
        # when a different video already had (or later took) that id.
        clip, lookalike = np.random.default_rng(4).normal(size=(2, 8))
        moved = clip + 5.0
        gallery = ShardedGallery(num_nodes=2, placement="hash")
        gallery.add("clip", 1, clip)
        if reembed_first:
            gallery.reembed("clip", 3, moved)
            gallery.add("clip@g1", 2, lookalike)
        else:
            gallery.add("clip@g1", 2, lookalike)
            gallery.reembed("clip", 3, moved)
        assert _pairs(gallery.search(lookalike, k=1)) == [("clip@g1", 2)]
        assert _pairs(gallery.search(moved, k=1)) == [("clip", 3)]
        assert sorted(gallery.live_ids()) == ["clip", "clip@g1"]
        both = gallery.version
        gallery.delete("clip@g1")
        assert _pairs(gallery.search(moved, k=2)) == [("clip", 3)]
        assert gallery.live_ids() == ["clip"]
        assert gallery.is_visible("clip", gallery.version)
        assert not gallery.is_visible("clip@g1", gallery.version)
        assert gallery.is_visible("clip@g1", both)

    def test_duplicate_ids_in_one_ingest_raise(self):
        features = np.random.default_rng(5).normal(size=(3, 8))
        gallery = ShardedGallery(num_nodes=2)
        with pytest.raises(ValueError, match="'a'"):
            gallery.add_batch(["a", "b", "a"], [0, 1, 2], features)
        assert len(gallery) == gallery.physical_rows == gallery.version == 0
        gallery.add_batch(["a", "b"], [0, 1], features[:2])
        with pytest.raises(ValueError, match="'b'"):
            gallery.add_batch(["c", "b"], [2, 3], features[1:])
        assert gallery.live_ids() == ["a", "b"]
        assert gallery.physical_rows == 2


@pytest.mark.parametrize("placement", ["round-robin", "hash"])
@pytest.mark.parametrize("replication", [1, 2])
def test_add_batch_matches_sequential_adds(placement, replication):
    rng = np.random.default_rng(8)
    ids, labels, features = draw_clustered_gallery(rng, 23, 8)
    queries = rng.normal(size=(5, 8))

    def fresh():
        return ShardedGallery(
            num_nodes=3, placement=placement,
            resilience=ResilienceConfig(replication=replication))

    batched, sequential = fresh(), fresh()
    start = batched.version
    # Two calls, so the second starts mid-cycle of the round-robin cursor.
    batched.add_batch(ids[:10], labels[:10], features[:10])
    batched.add_batch(ids[10:], labels[10:], features[10:])
    assert batched.version == start + 2
    for video_id, label, feature in zip(ids, labels, features):
        sequential.add(video_id, label, feature)
    assert sequential.version == start + len(ids)
    for mine, theirs in zip(batched.nodes, sequential.nodes):
        assert mine.index._ids == theirs.index._ids
    assert batched.physical_rows == replication * len(ids)
    assert batched.live_ids() == sequential.live_ids() == list(ids)
    for mine, theirs in zip(batched.search_batch(queries, 7),
                            sequential.search_batch(queries, 7)):
        assert [(e.video_id, e.label, e.score) for e in mine] == \
            [(e.video_id, e.label, e.score) for e in theirs]


class TestReplicatedChurn:
    def test_populated_replicated_gallery_mutates(self):
        rng = np.random.default_rng(6)
        ids, labels, features = draw_clustered_gallery(rng, 18, 8)
        gallery = ShardedGallery(num_nodes=3,
                                 resilience=ResilienceConfig(replication=2))
        gallery.add_batch(ids, labels, features)
        snap = gallery.snapshot()
        before = gallery.search(features[2], k=6)
        gallery.delete(ids[2])
        gallery.reembed(ids[4], 77, features[4] + 3.0)
        assert gallery.version == snap.version + 2
        assert len(gallery) == len(ids) - 1
        assert gallery.physical_rows == 2 * (len(ids) + 1)
        fresh = gallery.search(features[2], k=6)
        assert ids[2] not in {entry.video_id for entry in fresh}
        check_snapshot_consistency(gallery, gallery.snapshot(), fresh, k=6)
        assert _pairs(gallery.search(features[4] + 3.0, k=1)) == \
            [(ids[4], 77)]
        pinned = gallery.search(features[2], k=6, snapshot=snap)
        assert [(e.video_id, e.score) for e in pinned] == \
            [(e.video_id, e.score) for e in before]
        check_snapshot_consistency(gallery, snap, pinned, k=6)
        # One replica per shard is enough while a node is down.
        everything = gallery.search(features[0], k=len(ids))
        gallery.nodes[1].take_down()
        assert gallery.search(features[0], k=len(ids)) == everything
        assert gallery.compact() == 4  # two tombstones, two copies each
        assert gallery.search(features[0], k=len(ids)) == everything
