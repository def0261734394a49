"""Fast query paths must not route around a stateful defense.

A stateful detector (or a test spy) attached as the service's
preprocessor has to observe *every* query the attacker issues and
nothing else.  These tests pin both edges: ``query_batch`` commits every
video in order, and ``speculate`` only transforms — the candidates a
caller consumes reach ``commit``, the rest never do — so the detector
and the obs counters see exactly the stream a sequential attacker would
have produced.
"""

import numpy as np

from repro.defenses.stateful import StatefulQueryDetector
from repro.obs import counter
from repro.qa import eager_forwards
from repro.qa.comparators import assert_retrieval_lists_equal
from repro.qa.pairs import _qa_priors, duo_query_attack
from repro.qa.world import build_world


class _Spy:
    """A detector's preprocessor plus an id record of its commits."""

    def __init__(self, detector, account):
        self.feed = detector.preprocessor(account)
        self.observed = []

    def __call__(self, video):
        return self.feed(video)

    def commit(self, videos):
        self.observed.extend(video.video_id for video in videos)
        self.feed.commit(videos)


def _spy_on(service, detector, account="acct"):
    """Attach a detector plus an id-recording spy as the preprocessor."""
    spy = _Spy(detector, account)
    service.config = service.config.with_(preprocessor=spy)
    return spy.observed


def test_speculation_commits_only_consumed_candidates():
    world = build_world(41)
    detector = StatefulQueryDetector()
    observed = _spy_on(world.service, detector)
    candidates = world.gallery_videos[:3]
    results = world.service.speculate(candidates)
    assert len(results) == 3
    assert observed == [] and world.service.queries_issued == 0
    world.service.commit_speculated(1)
    # Only the consumed candidate reached the detector.
    assert observed == [candidates[0].video_id]
    assert detector.observed_count("acct") == \
        world.service.queries_issued == 1


def test_query_batch_feeds_the_detector_every_video():
    plain = build_world(41)
    wrapped = build_world(41)
    observed = _spy_on(wrapped.service, StatefulQueryDetector())

    videos = wrapped.gallery_videos[:4]
    batched = wrapped.service.query_batch(videos)
    # Same batch shape, so the same forward: byte-identical lists (a
    # batch of one embeds differently in the last bit).
    reference = plain.service.query_batch(videos)

    assert observed == [video.video_id for video in videos]
    assert_retrieval_lists_equal(reference, batched)
    assert wrapped.service.query_count == plain.service.query_count == 4


def _run_sparse_query(world, sequential=False, iters=6, seed=17):
    """DUO's query stage (``duo-query``) over fixed priors."""
    priors = _qa_priors(world.original.pixels.shape, seed + 1)
    report = duo_query_attack(priors, iters, world.service, seed,
                              sequential).run(world.original, world.target)
    return report.adversarial, report.trace, report


def test_attack_under_detector_matches_clean_sequential_run():
    # Clean world, explicitly sequential.
    plain = build_world(47)
    plain_adv, plain_trace, plain_report = _run_sparse_query(
        plain, sequential=True)

    # Same world, but every query flows through a detector spy; the
    # attack speculates its ±ε pairs and commits only what it consumed.
    guarded = build_world(47)
    detector = StatefulQueryDetector()
    observed = _spy_on(guarded.service, detector)
    guarded_adv, guarded_trace, guarded_report = _run_sparse_query(guarded)

    # Identical attack results...
    np.testing.assert_array_equal(plain_adv.pixels, guarded_adv.pixels)
    assert guarded_trace == plain_trace
    # ...and the detector saw every single query the attack issued.
    assert len(observed) == guarded.service.query_count
    assert guarded.service.query_count == plain.service.query_count
    assert guarded_report.queries == plain_report.queries
    assert guarded_report.queries == guarded.service.query_count


def test_speculative_path_reports_the_same_obs_counter_stream():
    queries_counter = counter("retrieval.queries")

    sequential_world = build_world(53)
    before = queries_counter.value
    _, seq_trace, seq_report = _run_sparse_query(sequential_world,
                                                 sequential=True)
    sequential_delta = queries_counter.value - before

    speculative_world = build_world(53)
    before = queries_counter.value
    _, spec_trace, spec_report = _run_sparse_query(speculative_world)
    speculative_delta = queries_counter.value - before

    assert spec_trace == seq_trace
    assert spec_report.queries == seq_report.queries
    # The obs counter ticks once per *committed* query — identical
    # totals, so dashboards cannot tell the fast path from the slow one.
    assert speculative_delta == sequential_delta
    assert sequential_delta == sequential_world.service.query_count


def test_jit_replay_preserves_query_instrumentation():
    """Trace replay sits *below* the service's preprocessor — it must
    never skim queries past a detector spy or the obs counter stream."""
    queries_counter = counter("retrieval.queries")

    plain = build_world(61)
    before = queries_counter.value
    with eager_forwards():
        plain_adv, plain_trace, plain_report = _run_sparse_query(
            plain, sequential=True)
    plain_delta = queries_counter.value - before

    fused = build_world(61)
    detector = StatefulQueryDetector()
    observed = _spy_on(fused.service, detector)
    before = queries_counter.value
    fused_adv, fused_trace, fused_report = _run_sparse_query(fused)
    fused_delta = queries_counter.value - before

    # Replay is bit-identical, so the attack takes the exact same path...
    np.testing.assert_array_equal(plain_adv.pixels, fused_adv.pixels)
    assert fused_trace == plain_trace
    # ...the detector saw every query the fused run issued...
    assert len(observed) == fused.service.query_count
    assert fused.service.query_count == plain.service.query_count
    assert fused_report.queries == plain_report.queries
    # ...and the counter stream is indistinguishable from eager.
    assert fused_delta == plain_delta


def test_jit_fuse_toggle_is_invisible_to_query_results():
    eager = build_world(67)
    fused = build_world(67)
    for video in eager.gallery_videos[:3]:
        with eager_forwards():
            expected = eager.service.query(video)
        assert_retrieval_lists_equal([expected],
                                     [fused.service.query(video)])
    assert eager.service.query_count == fused.service.query_count


def test_detector_flagging_is_path_independent():
    # Near-duplicate probing must accumulate detector hits identically
    # whether queries arrive one at a time or through query_batch.
    one_by_one = build_world(59)
    det_a = StatefulQueryDetector(distance_threshold=0.5, flag_after=3)
    _spy_on(one_by_one.service, det_a, account="a")
    probes = [one_by_one.original.perturbed(
        np.full(one_by_one.original.pixels.shape, 1e-4 * i))
        for i in range(5)]
    for probe in probes:
        one_by_one.service.query(probe)

    batched = build_world(59)
    det_b = StatefulQueryDetector(distance_threshold=0.5, flag_after=3)
    _spy_on(batched.service, det_b, account="a")
    batched.service.query_batch(probes)

    assert det_a.hit_count("a") == det_b.hit_count("a") > 0
    assert det_a.is_flagged("a") == det_b.is_flagged("a")
