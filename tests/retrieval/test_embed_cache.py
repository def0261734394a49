"""Tests for the content-hash embedding cache on the retrieval engine."""

import sys
import time

import numpy as np
import pytest

from repro.perf.cache import EmbeddingCache, content_key
from repro.qa.concurrency import BarrierHarness
from repro.retrieval import RetrievalEngine
from repro.video import Video


class TestContentKey:
    def test_single_value_change_misses(self, rng):
        pixels = rng.random((2, 4, 4, 3))
        changed = pixels.copy()
        changed[0, 0, 0, 0] += 1e-9
        assert content_key(pixels) != content_key(changed)
        assert content_key(pixels) == content_key(pixels.copy())

    def test_shape_disambiguates(self):
        flat = np.zeros(12)
        assert content_key(flat) != content_key(flat.reshape(3, 4))


class TestEmbeddingCache:
    def test_lru_eviction(self, rng):
        cache = EmbeddingCache(capacity=2)
        keys = [content_key(rng.random(3)) for _ in range(3)]
        for key in keys:
            cache.put(key, rng.random(4))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(keys[0]) is None  # oldest was evicted
        assert cache.get(keys[2]) is not None

    def test_zero_capacity_disables(self, rng):
        cache = EmbeddingCache(capacity=0)
        key = content_key(rng.random(3))
        cache.put(key, rng.random(4))
        assert not cache.enabled
        assert len(cache) == 0
        assert cache.get(key) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingCache(capacity=-1)

    def test_stats_and_counters(self, rng):
        cache = EmbeddingCache(capacity=4)
        key = content_key(rng.random(3))
        cache.get(key)
        cache.put(key, rng.random(4))
        cache.get(key)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_stored_features_frozen(self, rng):
        cache = EmbeddingCache(capacity=4)
        key = content_key(rng.random(3))
        cache.put(key, rng.random(4))
        entry = cache.get(key)
        with pytest.raises(ValueError):
            entry[0] = 0.0

    def test_put_neither_freezes_nor_aliases_caller_array(self, rng):
        # Regression: ``put`` used to freeze the caller's ndarray in
        # place (asarray returns it unchanged), so mutating the source
        # afterwards either raised ValueError or corrupted the cache.
        cache = EmbeddingCache(capacity=4)
        key = content_key(rng.random(3))
        feature = rng.random(4)
        cache.put(key, feature)
        snapshot = np.array(cache.get(key))
        feature[0] += 123.0  # caller reuses its buffer; must not raise
        entry = cache.get(key)
        assert not np.shares_memory(entry, feature)
        np.testing.assert_array_equal(entry, snapshot)
        assert feature.flags.writeable

    def test_counter_accounting_exact_under_free_threads(self, rng):
        # Regression: hit/miss bookkeeping used to run outside the
        # cache's lock, so racing lookups lost read-modify-write updates
        # and ``hits + misses`` drifted below the lookup count.  On a
        # GIL interpreter a plain ``self.hits += 1`` is never preempted
        # mid-increment, so the race window is widened with a descriptor
        # that yields between the read and the write — counting stays
        # exact only if the increment runs under the cache's lock.
        class YieldingCounter:
            def __set_name__(self, owner, name):
                self.slot = "_yielding_" + name

            def __get__(self, obj, objtype=None):
                if obj is None:
                    return self
                value = obj.__dict__.get(self.slot, 0)
                time.sleep(0)  # offer the scheduler a switch point
                return value

            def __set__(self, obj, value):
                obj.__dict__[self.slot] = value

        class InstrumentedCache(EmbeddingCache):
            hits = YieldingCounter()
            misses = YieldingCounter()

        cache = InstrumentedCache(capacity=8)
        present = [content_key(np.array([float(i)])) for i in range(3)]
        absent = content_key(np.array([99.0]))
        for key in present:
            cache.put(key, rng.random(4))
        threads, steps, burst = 4, 60, 10
        keys = present + [absent]
        harness = BarrierHarness(threads=threads, steps=steps, seed=3)

        def worker(thread_id, step, _rng):
            for i in range(burst):
                cache.get(keys[(thread_id + step + i) % len(keys)])

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            harness.run_free(worker)
        finally:
            sys.setswitchinterval(old_interval)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == threads * steps * burst


class TestEngineCache:
    def test_hits_are_bit_identical(self, tiny_victim, tiny_dataset):
        engine = tiny_victim.engine
        video = tiny_dataset.test[0]
        engine.clear_embedding_cache()
        first = engine.embed_queries([video])
        hits_before = engine.embedding_cache.hits
        second = engine.embed_queries([video])
        assert engine.embedding_cache.hits == hits_before + 1
        np.testing.assert_array_equal(first, second)

    def test_mixed_hit_miss_batch(self, tiny_victim, tiny_dataset):
        engine = tiny_victim.engine
        engine.clear_embedding_cache()
        cold = engine.embed_queries(tiny_dataset.test[:3])
        mixed = engine.embed_queries(tiny_dataset.test[:4])
        np.testing.assert_array_equal(mixed[:3], cold)

    def test_gallery_mutation_keeps_query_cache_valid(self, tiny_victim,
                                                      tiny_dataset):
        # The cache keys on query *pixels*; gallery inserts change search
        # results but never the embedding of an unchanged query.
        extractor = tiny_victim.engine.extractor
        engine = RetrievalEngine(extractor, num_nodes=2)
        engine.index_videos(tiny_dataset.train[:6])
        video = tiny_dataset.test[0]
        before = engine.embed_queries([video])[0]
        engine.retrieve(video, m=3)
        engine.index_videos(tiny_dataset.train[6:10])
        hits_before = engine.embedding_cache.hits
        after_feature = engine.embed_queries([video])[0]
        assert engine.embedding_cache.hits > hits_before
        np.testing.assert_array_equal(after_feature, before)
        # And the search itself reflects the mutated gallery.
        assert engine.gallery_size == 10

    def test_cache_disabled_engine(self, tiny_victim, tiny_dataset):
        engine = RetrievalEngine(tiny_victim.engine.extractor, num_nodes=2,
                                 cache_size=0)
        engine.index_videos(tiny_dataset.train[:4])
        engine.retrieve(tiny_dataset.test[0], m=2)
        engine.retrieve(tiny_dataset.test[0], m=2)
        assert engine.embedding_cache.hits == 0
        assert len(engine.embedding_cache) == 0

    def test_perturbed_video_misses(self, tiny_victim, tiny_dataset):
        engine = tiny_victim.engine
        engine.clear_embedding_cache()
        video = tiny_dataset.test[0]
        engine.embed_queries([video])
        misses_before = engine.embedding_cache.misses
        perturbation = np.zeros_like(video.pixels)
        perturbation[0, 0, 0, 0] = 1e-6
        engine.embed_queries([video.perturbed(perturbation)])
        assert engine.embedding_cache.misses == misses_before + 1
