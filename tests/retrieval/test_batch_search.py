"""Batched search equivalence: index, gallery, service, and engine layers."""

import numpy as np
import pytest

from repro.qa.world import build_world
from repro.resilience import FaultPlan
from repro.retrieval import (
    FeatureIndex,
    QueryBudgetExceeded,
    RetrievalService,
    RetrievalUnavailable,
    ShardedGallery,
    cosine,
    negative_l2,
)
from repro.retrieval.similarity import batched_similarity, hamming


def _fill(index_or_gallery, rng, rows=20, dim=6):
    features = rng.normal(size=(rows, dim))
    for i, feature in enumerate(features):
        index_or_gallery.add(f"v{i}", i % 4, feature)
    return features


class TestFeatureIndexBatch:
    @pytest.mark.parametrize("similarity", [negative_l2, cosine, hamming])
    def test_matches_sequential_search(self, rng, similarity):
        index = FeatureIndex(similarity)
        _fill(index, rng)
        queries = rng.normal(size=(5, 6))
        batched = index.search_batch(queries, k=4)
        for query, batch_result in zip(queries, batched):
            sequential = index.search(query, k=4)
            assert [e.video_id for e in batch_result] == \
                [e.video_id for e in sequential]
            # Only l2 promises bit-identical scores (same reduction order);
            # cosine/hamming run one GEMM instead of B matvecs.
            if similarity is negative_l2:
                assert [e.score for e in batch_result] == \
                    [e.score for e in sequential]
            else:
                np.testing.assert_allclose(
                    [e.score for e in batch_result],
                    [e.score for e in sequential], rtol=1e-12)

    def test_custom_similarity_fallback(self, rng):
        def inverted(query, gallery):
            return -np.abs(gallery - query[None, :]).sum(axis=1)

        index = FeatureIndex(inverted)
        _fill(index, rng)
        queries = rng.normal(size=(3, 6))
        batched = index.search_batch(queries, k=3)
        for query, batch_result in zip(queries, batched):
            sequential = index.search(query, k=3)
            assert [e.video_id for e in batch_result] == \
                [e.video_id for e in sequential]

    def test_empty_index_returns_empty_lists(self):
        index = FeatureIndex()
        assert index.search(np.zeros(4), k=3) == []
        assert index.search_batch(np.zeros((3, 4)), k=2) == [[], [], []]

    def test_empty_feature_matrix_is_an_error(self):
        index = FeatureIndex()
        with pytest.raises(RuntimeError, match="empty index"):
            index._feature_matrix()

    def test_add_batch_matches_sequential_add(self, rng):
        features = rng.normal(size=(7, 5))
        one_by_one = FeatureIndex()
        batched = FeatureIndex()
        for i, feature in enumerate(features):
            one_by_one.add(f"v{i}", i, feature)
        batched.add_batch([f"v{i}" for i in range(7)], list(range(7)),
                          features)
        np.testing.assert_array_equal(one_by_one._feature_matrix(),
                                      batched._feature_matrix())
        assert one_by_one.labels_of() == batched.labels_of()

    def test_add_batch_zip_truncation(self, rng):
        index = FeatureIndex()
        index.add_batch(["a", "b", "c"], [0, 1], rng.normal(size=(3, 4)))
        assert len(index) == 2

    def test_add_batch_dim_mismatch(self, rng):
        index = FeatureIndex()
        index.add("v0", 0, rng.normal(size=4))
        with pytest.raises(ValueError, match="feature dim mismatch"):
            index.add_batch(["a"], [1], rng.normal(size=(1, 5)))


class TestShardedGalleryBatch:
    def test_add_batch_preserves_round_robin(self, rng):
        features = rng.normal(size=(11, 5))
        sequential = ShardedGallery(num_nodes=3)
        batched = ShardedGallery(num_nodes=3)
        # Start both cursors off zero to exercise cursor continuity.
        sequential.add("seed", 0, features[0])
        batched.add("seed", 0, features[0])
        for i, feature in enumerate(features[1:]):
            sequential.add(f"v{i}", i, feature)
        batched.add_batch([f"v{i}" for i in range(10)], list(range(10)),
                          features[1:])
        assert batched._next_shard == sequential._next_shard
        for node_a, node_b in zip(sequential.nodes, batched.nodes):
            assert node_a.index._ids == node_b.index._ids
            np.testing.assert_array_equal(node_a.index._feature_matrix(),
                                          node_b.index._feature_matrix())

    def test_search_batch_matches_sequential(self, rng):
        gallery = ShardedGallery(num_nodes=3)
        _fill(gallery, rng)
        queries = rng.normal(size=(4, 6))
        batched = gallery.search_batch(queries, k=5)
        for query, batch_result in zip(queries, batched):
            sequential = gallery.search(query, k=5)
            assert [e.video_id for e in batch_result] == \
                [e.video_id for e in sequential]
            assert [e.score for e in batch_result] == \
                [e.score for e in sequential]

    def test_search_batch_skips_downed_node(self, rng):
        gallery = ShardedGallery(num_nodes=3)
        _fill(gallery, rng)
        gallery.nodes[1].take_down()
        queries = rng.normal(size=(3, 6))
        batched = gallery.search_batch(queries, k=4)
        for query, batch_result in zip(queries, batched):
            sequential = gallery.search(query, k=4)
            assert [e.video_id for e in batch_result] == \
                [e.video_id for e in sequential]
            assert all(e.video_id not in gallery.nodes[1].index._ids
                       for e in batch_result)


class TestBatchedSimilarity:
    @pytest.mark.parametrize("similarity", [negative_l2, cosine, hamming])
    def test_rows_bitwise_or_close(self, rng, similarity):
        gallery = rng.normal(size=(15, 8))
        queries = rng.normal(size=(4, 8))
        batch = batched_similarity(similarity)(queries, gallery)
        for row, query in zip(batch, queries):
            reference = similarity(query, gallery)
            if similarity is negative_l2:
                np.testing.assert_array_equal(row, reference)
            else:
                np.testing.assert_allclose(row, reference, rtol=1e-12)

    def test_l2_rows_bit_identical(self, rng):
        # The batched l2 must preserve the scalar reduction order exactly;
        # batched rankings (and therefore attack traces) depend on it.
        gallery = rng.normal(size=(50, 16))
        queries = rng.normal(size=(8, 16))
        batch = batched_similarity(negative_l2)(queries, gallery)
        for row, query in zip(batch, queries):
            np.testing.assert_array_equal(row, negative_l2(query, gallery))


class TestServiceAndEngineBatch:
    def test_query_batch_matches_sequential(self, tiny_victim, tiny_dataset):
        videos = tiny_dataset.test[:4]
        service_a = RetrievalService.build(tiny_victim.engine, m=5)
        service_b = RetrievalService.build(tiny_victim.engine, m=5)
        sequential = [service_a.query(video) for video in videos]
        batched = service_b.query_batch(videos)
        assert service_b.query_count == service_a.query_count == len(videos)
        for seq, bat in zip(sequential, batched):
            assert seq.ids == bat.ids

    def test_query_batch_budget_stops_mid_batch(self, tiny_victim,
                                                tiny_dataset):
        service = RetrievalService.build(
            tiny_victim.engine, m=4, query_budget=2)
        with pytest.raises(QueryBudgetExceeded):
            service.query_batch(tiny_dataset.test[:4])
        assert service.query_count == 2

    def test_mid_batch_outage_matches_sequential_accounting(self):
        # Regression: a mid-batch RetrievalUnavailable used to refund the
        # *entire* batch; a sequential loop serves the prefix, refunds
        # exactly the failing query, and never issues the suffix.
        batched_world = build_world(83, num_nodes=1)
        with FaultPlan().outage("node-0", 2, 5).install(
                batched_world.engine.gallery):
            with pytest.raises(RetrievalUnavailable) as excinfo:
                batched_world.service.query_batch(
                    batched_world.gallery_videos[:4])
        assert excinfo.value.served_count == 2

        sequential_world = build_world(83, num_nodes=1)
        sequential_results = []
        with FaultPlan().outage("node-0", 2, 5).install(
                sequential_world.engine.gallery):
            with pytest.raises(RetrievalUnavailable):
                for video in sequential_world.gallery_videos[:4]:
                    sequential_results.append(
                        sequential_world.service.query(video))

        for attr in ("query_count", "queries_issued", "queries_refunded"):
            assert getattr(batched_world.service, attr) == \
                getattr(sequential_world.service, attr), attr
        assert batched_world.service.query_count == 2
        assert batched_world.service.queries_issued == 3
        assert batched_world.service.queries_refunded == 1
        # The exception carries the served prefix, bit-identical to the
        # lists the sequential loop received before the outage.
        assert [r.ids for r in excinfo.value.served] == \
            [r.ids for r in sequential_results]

    def test_whole_batch_outage_counts_like_a_first_query_failure(self):
        world = build_world(83, num_nodes=2)
        for node in world.engine.gallery.nodes:
            node.take_down()
        with pytest.raises(RetrievalUnavailable):
            world.service.query_batch(world.gallery_videos[:3])
        # Sequential semantics: the first query fails (issued + refunded),
        # the rest are never sent.
        assert world.service.query_count == 0
        assert world.service.queries_issued == 1
        assert world.service.queries_refunded == 1

    def test_pinned_batch_draws_faults_per_query(self):
        # Pinned batches used to search each same-version run in one
        # call, so a flaky node drew once per run instead of per query.
        runs = []
        for pinned in (False, True):
            world = build_world(83, num_nodes=2)
            gallery = world.engine.gallery
            snapshots = [gallery.snapshot()] * 4 if pinned else None
            plan = FaultPlan(seed=5).flaky("node-0", 0.5)
            with plan.install(gallery):
                results = world.engine.retrieve_batch(
                    world.gallery_videos[:4], 4, snapshots=snapshots)
            runs.append((plan.timeline(), [r.ids for r in results]))
        assert runs[0] == runs[1]
        assert len({query for query, _, _ in runs[0][0]}) > 1

    def test_retrieve_batch_matches_retrieve(self, tiny_victim, tiny_dataset):
        videos = tiny_dataset.test[:3]
        sequential = [tiny_victim.engine.retrieve(v, m=4) for v in videos]
        batched = tiny_victim.engine.retrieve_batch(videos, m=4)
        for seq, bat in zip(sequential, batched):
            assert seq.ids == bat.ids
            assert [e.score for e in seq] == [e.score for e in bat]

    def test_retrieve_batch_empty(self, tiny_victim):
        assert tiny_victim.engine.retrieve_batch([], m=4) == []

    def test_speculate_commits_only_consumed(self, tiny_victim,
                                             tiny_dataset):
        committed = []

        class Spy:
            def __call__(self, video):
                return video

            def commit(self, videos):
                committed.extend(video.video_id for video in videos)

        service = RetrievalService.build(tiny_victim.engine, m=4,
                                         preprocessor=Spy())
        videos = tiny_dataset.test[:2]
        assert len(service.speculate(videos)) == 2
        assert committed == []
        service.commit_speculated(1)
        assert committed == [videos[0].video_id]
        assert service.queries_issued == 1

    def test_instrumented_query_is_not_bypassed(self, tiny_victim,
                                                tiny_dataset):
        # An identity spy preprocessor (attached the way a stateful
        # detector is) must commit every batched query, once.
        calls = []

        class Spy:
            def __call__(self, video):
                return video

            def commit(self, videos):
                calls.extend(video.video_id for video in videos)

        service = RetrievalService.build(tiny_victim.engine, m=4,
                                         preprocessor=Spy())
        service.query_batch(tiny_dataset.test[:3])
        assert len(calls) == 3
        assert service.query_count == 3

    def test_speculate_then_commit_counts(self, tiny_victim, tiny_dataset):
        service = RetrievalService.build(tiny_victim.engine, m=4)
        results = service.speculate(tiny_dataset.test[:2])
        assert service.query_count == 0
        assert len(results) == 2
        service.commit_speculated(1)
        assert service.query_count == 1
