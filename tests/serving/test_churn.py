"""Mutating timelines: event generation, canonical order, oracle smoke.

The full property coverage lives in the ``serving.mutating_timeline``
qa oracle; these tests pin the building blocks (merge order, churn
generation, compaction accounting) plus one end-to-end smoke of the
sequential-vs-pooled equivalence, and the attack-under-churn
acceptance: a registry attack keeps its exact query ledger while the
gallery mutates underneath it.
"""

import numpy as np
import pytest

from repro.attacks.registry import build_attack
from repro.attacks.config import AttackConfig
from repro.obs import counter
from repro.qa.invariants import check_budget_conservation
from repro.qa.reference import replay_sequential
from repro.qa.world import build_world
from repro.serving import (
    AddVideo,
    DeleteVideo,
    ReembedVideo,
    Request,
    ServingConfig,
    ServingFrontend,
    TenantSpec,
    generate_churn,
    generate_timeline,
    merge_timeline,
)
from repro.serving.events import apply_gallery_event
from repro.video.types import Video


def make_video(seed: int, video_id: str, label: int = 50) -> Video:
    rng = np.random.default_rng(seed)
    return Video(pixels=rng.random((8, 16, 16, 3)), label=label,
                 video_id=video_id)


class TestMergeTimeline:
    def test_events_win_ties_and_order_is_stable(self):
        video = make_video(0, "x")
        request = Request("alice", video, arrival_s=0.5)
        early = DeleteVideo(0.25, "a")
        tied = AddVideo(0.5, make_video(1, "b"))
        late = ReembedVideo(0.75, make_video(2, "c"))
        merged = merge_timeline([request, late, tied, early])
        assert merged == [early, tied, request, late]

    def test_requests_keep_relative_order_at_equal_times(self):
        video = make_video(0, "x")
        first = Request("alice", video, arrival_s=0.1)
        second = Request("bob", video, arrival_s=0.1)
        assert merge_timeline([first, second]) == [first, second]
        assert merge_timeline([second, first]) == [second, first]


class TestGenerateChurn:
    def test_deterministic_and_counted(self):
        ids = [f"v{i}" for i in range(6)]
        first = generate_churn(9, ids, adds=3, deletes=2, reembeds=2)
        second = generate_churn(9, ids, adds=3, deletes=2, reembeds=2)
        assert len(first) == 7
        assert [type(e).__name__ for e in first] == \
            [type(e).__name__ for e in second]
        assert [e.arrival_s for e in first] == [e.arrival_s for e in second]
        assert sorted(e.arrival_s for e in first) == \
            [e.arrival_s for e in first]

    def test_mutations_only_target_live_ids(self):
        ids = [f"v{i}" for i in range(4)]
        events = generate_churn(3, ids, adds=2, deletes=4, reembeds=3)
        live = set(ids)
        for event in events:
            if isinstance(event, AddVideo):
                live.add(event.video.video_id)
            elif isinstance(event, DeleteVideo):
                assert event.video_id in live
                live.remove(event.video_id)
            else:
                assert event.video.video_id in live

    def test_events_validate_arrival(self):
        with pytest.raises(ValueError):
            DeleteVideo(-0.1, "v0")


class TestApplyEvent:
    def test_apply_counts_and_compacts(self):
        from repro.hashindex import CompactionPolicy
        world = build_world(71, num_videos=10, num_nodes=2, replication=1)
        engine = world.service.engine
        engine.enable_churn()
        live = [video.video_id for video in world.gallery_videos]
        eager = CompactionPolicy(min_dead_fraction=0.01, min_dead_rows=1)
        before = counter("serving.gallery_events", kind="DeleteVideo").value
        compactions = counter("serving.compactions").value
        apply_gallery_event(engine, DeleteVideo(0.0, live[0]), eager)
        assert counter("serving.gallery_events",
                       kind="DeleteVideo").value == before + 1
        assert counter("serving.compactions").value == compactions + 1
        assert live[0] not in engine.gallery.live_ids()


class TestMutatingEquivalence:
    def _world_and_timeline(self, seed=5):
        world = build_world(seed % 997, num_videos=12, num_nodes=3,
                            replication=1)
        specs = [TenantSpec(f"tenant-{i}", 150.0 + 50.0 * i, 5)
                 for i in range(2)]
        requests = generate_timeline(seed + 11, specs, world.gallery_videos)
        horizon = max(request.arrival_s for request in requests)
        events = generate_churn(
            seed, [video.video_id for video in world.gallery_videos],
            adds=2, deletes=3, reembeds=2, horizon_s=horizon)
        return world, list(requests) + list(events)

    def test_sequential_vs_pooled_smoke(self):
        config = ServingConfig(max_batch_size=4, max_wait_s=0.003,
                               queue_capacity=512, workers=3)
        runs = []
        for pooled in (False, True):
            world, timeline = self._world_and_timeline()
            if pooled:
                report = ServingFrontend(world.service, config).run(timeline)
            else:
                report = replay_sequential(timeline, world.service, config)
            runs.append((report, world.service))
        reference, fast = runs[0][0], runs[1][0]
        assert reference.gallery_events == fast.gallery_events > 0
        assert [r.status for r in reference.responses] == \
            [r.status for r in fast.responses]
        assert reference.served_by_tenant == fast.served_by_tenant
        assert (runs[0][1].query_count, runs[0][1].queries_refunded) == \
            (runs[1][1].query_count, runs[1][1].queries_refunded)
        for mine, theirs in zip(reference.responses, fast.responses):
            if mine.ok:
                assert [e.video_id for e in mine.result.entries] == \
                    [e.video_id for e in theirs.result.entries]
        for _, service in runs:
            check_budget_conservation(service)


class TestAttackUnderChurn:
    def test_attack_stays_within_budget_across_mutations(self):
        world = build_world(73, num_videos=8, query_budget=60)
        service, engine = world.service, world.service.engine
        engine.enable_churn()
        config = AttackConfig(strategy="rl-sparse", k=40, n=2, tau=30.0,
                              iterations=4, budget=25)
        attack = build_attack(config, service=service)
        first = attack.run(world.original, world.target)
        assert 0 < first.queries <= 25

        # The gallery mutates between attack phases, as it would under
        # live traffic: one victim deleted, one re-embedded, one added.
        live = engine.gallery.live_ids()
        victim = next(video_id for video_id in live
                      if video_id != world.original.video_id)
        engine.remove_video(victim)
        mover = next(video_id for video_id in engine.gallery.live_ids()
                     if video_id not in (victim, world.original.video_id))
        mover_video = next(video for video in world.gallery_videos
                           if video.video_id == mover)
        engine.reembed_video(mover_video)
        engine.add_video(make_video(99, "churn-new", label=77))

        resumed = build_attack(config, service=service)
        second = resumed.run(first.adversarial, world.target)
        total = service.query_count
        assert 0 < second.queries <= 25
        assert total <= 60, "attack blew the global budget under churn"
        check_budget_conservation(service)
        # Tombstones must not resurrect in post-churn retrieval lists.
        final = engine.retrieve(second.adversarial, m=len(live) + 1)
        returned = {entry.video_id for entry in final.entries}
        assert victim not in returned
        assert "churn-new" in engine.gallery.live_ids()
