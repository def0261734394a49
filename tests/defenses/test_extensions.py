"""Tests for the extension defenses: ensemble retrieval + stateful detection."""

import contextlib

import numpy as np
import pytest

from repro.defenses import EnsembleEngine, StatefulQueryDetector, query_fingerprint
from repro.errors import RetrievalUnavailable
from repro.models import create_feature_extractor
from repro.qa.comparators import assert_retrieval_lists_equal
from repro.qa.pairs import _qa_priors, duo_query_attack
from repro.qa.world import build_world, tiny_extractor
from repro.resilience import ANY_NODE, FaultPlan
from repro.retrieval import RetrievalEngine, RetrievalService
from repro.serving import (
    ServingConfig,
    ServingFrontend,
    TenantSpec,
    generate_timeline,
)
from repro.video import Video


class TestEnsembleEngine:
    @pytest.fixture(scope="class")
    def ensemble(self, tiny_victim, tiny_dataset):
        # Second member: an untrained extractor over the same gallery —
        # deliberately different geometry.
        other = create_feature_extractor("c3d", feature_dim=16, width=2,
                                         rng=99)
        other.eval()
        other.requires_grad_(False)
        second = RetrievalEngine(other, num_nodes=2)
        second.index_videos(tiny_dataset.train)
        return EnsembleEngine([tiny_victim.engine, second])

    def test_retrieve_shape(self, ensemble, tiny_dataset):
        result = ensemble.retrieve(tiny_dataset.test[0], m=5)
        assert len(result) == 5

    def test_scores_descending(self, ensemble, tiny_dataset):
        result = ensemble.retrieve(tiny_dataset.test[0], m=6)
        scores = [entry.score for entry in result]
        assert scores == sorted(scores, reverse=True)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            EnsembleEngine([])

    def test_gallery_size(self, ensemble, tiny_dataset):
        assert ensemble.gallery_size == len(tiny_dataset.train)

    def test_single_member_matches_member(self, tiny_victim, tiny_dataset):
        solo = EnsembleEngine([tiny_victim.engine])
        query = tiny_dataset.test[0]
        fused = solo.retrieve(query, m=5).ids
        direct = tiny_victim.engine.retrieve(query, m=5).ids
        assert fused == direct

    def test_works_behind_service(self, ensemble, tiny_dataset):
        service = RetrievalService.build(ensemble, m=5)
        assert len(service.query(tiny_dataset.test[0])) == 5

    def test_retrieve_batch_matches_per_video_retrieve(self, ensemble,
                                                       tiny_dataset):
        videos = list(tiny_dataset.test[:4])
        assert_retrieval_lists_equal(
            [ensemble.retrieve(video, m=5) for video in videos],
            ensemble.retrieve_batch(videos, m=5))

    def test_speculative_attack_runs_behind_service(self, ensemble,
                                                    tiny_dataset):
        # Speculative SimBA scores its candidate pairs through
        # engine.retrieve_batch; it must match the sequential attack.
        original, target = tiny_dataset.test[2], tiny_dataset.test[3]
        priors = _qa_priors(original.pixels.shape, 5)
        runs = []
        for sequential in (True, False):
            service = RetrievalService.build(ensemble, m=5)
            report = duo_query_attack(priors, 4, service, 9,
                                      sequential).run(original, target)
            runs.append((report.adversarial.pixels, report.trace,
                         service.query_count))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1:] == runs[1][1:]

    def test_pooled_frontend_serves_ensemble(self, ensemble, tiny_dataset):
        # Every front-end batch goes through service.compute_batch; with
        # three workers the members' forwards replay on pool threads.
        videos = list(tiny_dataset.test[:6])
        specs = [TenantSpec(f"tenant-{i}", 200.0, 4) for i in range(2)]
        timeline = generate_timeline(5, specs, videos)
        config = ServingConfig(max_batch_size=4, max_wait_s=0.003,
                               queue_capacity=64, workers=3)
        service = RetrievalService.build(ensemble, m=5)
        report = ServingFrontend(service, config).run(timeline)
        assert report.workers == 3
        assert report.served == len(timeline)
        for request, response in zip(timeline, report.responses):
            assert_retrieval_lists_equal(
                [ensemble.retrieve(request.video, m=5)], [response.result])

    def test_snapshot_pinning_rejected(self, ensemble, tiny_dataset):
        videos = list(tiny_dataset.test[:2])
        with pytest.raises(ValueError, match="own gallery"):
            ensemble.retrieve_batch(videos, 5, snapshots=[object()] * 2)

    def test_fusion_balances_members(self, ensemble, tiny_victim,
                                     tiny_dataset):
        # The fused list should not be identical to either member alone
        # when members disagree.
        query = tiny_dataset.test[1]
        fused = ensemble.retrieve(query, m=6).ids
        member_a = tiny_victim.engine.retrieve(query, m=6).ids
        member_b = ensemble.engines[1].retrieve(query, m=6).ids
        if member_a != member_b:
            assert fused != member_a or fused != member_b


def test_member_outage_settles_like_sequential_retrieval():
    # Member 1 is down for logical query 1 of four.  Retrieving the
    # videos one at a time stops there: every member serves row 0,
    # member 0 also serves row 1, and member 2 never sees row 1.
    world = build_world(5)
    engines = [world.engine]
    for seed in (31, 32):
        engine = RetrievalEngine(tiny_extractor(seed), num_nodes=2,
                                 cache_size=0)
        engine.index_videos(world.gallery_videos)
        engines.append(engine)
    ensemble = EnsembleEngine(engines)
    videos = world.gallery_videos[:4]

    def plans():
        return [FaultPlan(seed=2).corrupt(ANY_NODE, 0.1),
                FaultPlan(seed=3).outage(ANY_NODE, 1, 2),
                FaultPlan(seed=4).corrupt(ANY_NODE, 0.1)]

    def installed(plan_list):
        stack = contextlib.ExitStack()
        for plan, engine in zip(plan_list, engines):
            stack.enter_context(plan.install(engine.gallery))
        return stack

    with installed(plans()):
        first = ensemble.retrieve_batch(videos[:1], m=4)
    plan_list = plans()
    with installed(plan_list), pytest.raises(RetrievalUnavailable) as info:
        ensemble.retrieve_batch(videos, m=4)
    assert info.value.served_count == 1
    assert_retrieval_lists_equal(first, info.value.served)
    assert {event.query for event in plan_list[0].events} == {0, 1}
    assert [event.query for event in plan_list[1].events] == [1] * 2
    assert {event.query for event in plan_list[2].events} == {0}


class TestQueryFingerprint:
    def test_near_duplicates_are_close(self, rng):
        base = Video(rng.random((4, 16, 16, 3)))
        tweaked = Video(np.clip(base.pixels + 0.002, 0, 1))
        distance = np.abs(query_fingerprint(base) -
                          query_fingerprint(tweaked)).mean()
        assert distance < 0.01

    def test_distinct_videos_are_far(self, rng):
        a = Video(rng.random((4, 16, 16, 3)))
        b = Video(rng.random((4, 16, 16, 3)))
        distance = np.abs(query_fingerprint(a) - query_fingerprint(b)).mean()
        assert distance > 0.05

    def test_fingerprint_size(self, rng):
        video = Video(rng.random((4, 16, 16, 3)))
        assert query_fingerprint(video, grid=4).shape == (4 * 4 * 4 * 3,)


class TestStatefulQueryDetector:
    def test_attack_stream_gets_flagged(self, rng):
        detector = StatefulQueryDetector(window=20, flag_after=5)
        base = Video(rng.random((4, 16, 16, 3)))
        for step in range(10):
            probe = Video(np.clip(
                base.pixels + rng.normal(scale=0.01, size=base.pixels.shape),
                0, 1))
            detector.observe("attacker", probe)
        assert detector.is_flagged("attacker")
        assert detector.hit_count("attacker") >= 5

    def test_benign_stream_not_flagged(self, rng):
        detector = StatefulQueryDetector(window=20, flag_after=5)
        for step in range(15):
            detector.observe("user", Video(rng.random((4, 16, 16, 3))))
        assert not detector.is_flagged("user")

    def test_accounts_isolated(self, rng):
        detector = StatefulQueryDetector(window=10, flag_after=2)
        base = Video(rng.random((4, 16, 16, 3)))
        for _ in range(4):
            detector.observe("bad", base)
        detector.observe("good", Video(rng.random((4, 16, 16, 3))))
        assert detector.is_flagged("bad")
        assert not detector.is_flagged("good")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StatefulQueryDetector(window=0)
        with pytest.raises(ValueError):
            StatefulQueryDetector(flag_after=0)

    def test_preprocessor_feeds_the_detector(self, tiny_victim,
                                             tiny_dataset):
        detector = StatefulQueryDetector(window=10, flag_after=2)
        service = RetrievalService.build(
            tiny_victim.engine, tiny_victim.service.config,
            preprocessor=detector.preprocessor("acct"))
        video = tiny_dataset.test[0]
        service.query(video)
        service.query(video)
        service.query(video)
        assert detector.is_flagged("acct")
        assert detector.observed_count("acct") == 3

    def test_simba_attack_trips_the_detector(self, tiny_victim, tiny_dataset,
                                             rng):
        """A real SimBA-style query stream is exactly what gets caught."""
        from repro.attacks import AttackConfig, build_attack

        detector = StatefulQueryDetector(window=30, flag_after=8,
                                         distance_threshold=0.05)
        service = RetrievalService.build(
            tiny_victim.engine, tiny_victim.service.config,
            preprocessor=detector.preprocessor("attacker"))
        pair = tiny_dataset.sample_attack_pairs(1, rng_or_seed=5)[0]
        attack = build_attack(
            AttackConfig(strategy="vanilla", k=60, n=3, tau=30,
                         iterations=20, seed=6),
            service=service)
        attack.run(*pair)
        assert detector.is_flagged("attacker")
        assert detector.observed_count("attacker") == service.query_count
