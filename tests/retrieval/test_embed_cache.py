"""Tests for the content-hash embedding cache on the retrieval engine."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.models import HashingHead, create_backbone
from repro.obs import counter
from repro.perf.cache import EmbeddingCache, content_key, frame_keys
from repro.qa.concurrency import BarrierHarness
from repro.qa.world import tiny_extractor, tiny_videos
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


class TestFrameKeys:
    def test_one_content_key_per_frame(self, rng):
        pixels = rng.random((3, 4, 4, 3))
        assert frame_keys(pixels) == tuple(content_key(f) for f in pixels)
        changed = pixels.copy()
        changed[1, 0, 0, 0] += 1e-9
        keys, moved = frame_keys(pixels), frame_keys(changed)
        assert [a == b for a, b in zip(keys, moved)] == [True, False, True]

    def test_shape_and_dtype_disambiguate(self):
        # Same bytes (all zero), different frame geometry or dtype.
        base = frame_keys(np.zeros((2, 4, 4, 3)))
        assert frame_keys(np.zeros((2, 4, 3, 4)))[0] != base[0]
        assert frame_keys(np.zeros((2, 4, 4, 3), dtype=np.int64))[0] \
            != base[0]
        assert frame_keys(np.zeros((2, 4, 4, 6), dtype=np.float32))[0] \
            != base[0]


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


def _pair(video: Video, frames, eps: float) -> list[Video]:
    """A ±ε candidate pair changing one pixel in each of ``frames``."""
    delta = np.zeros_like(video.pixels)
    delta[list(frames), 2, 3, 1] = eps
    return [Video(video.pixels + delta), Video(video.pixels - delta)]


def _work(engine) -> dict:
    stats = engine.embedding_cache.stats()
    return {name: stats[name] for name in ("frames_encoded", "frames_reused",
                                           "steps_run", "steps_skipped")}


def _counters() -> dict:
    return {name: counter(f"retrieval.embed_cache.{name}").value
            for name in ("frames_encoded", "frames_reused", "steps_run",
                         "steps_skipped")}


class TestFrameIncremental:
    """The engine re-encodes only changed frames and resumes the LSTM."""

    def test_pair_encodes_changed_frames_and_resumes(self):
        extractor = tiny_extractor(3)
        engine = RetrievalEngine(extractor, num_nodes=2)
        base = tiny_videos(4, 1)[0]
        engine.embed_queries([base])
        # The lone base reuses nothing and stores its clip feature only;
        # the first pair shares its unchanged frames within the call, so
        # it stores frame encodings and batch-2 states (a state resumes
        # only in a head call over as many clips as computed it).
        engine.embed_queries(_pair(base, (3, 5), 1e-3))
        work, obs = _work(engine), _counters()
        pair = _pair(base, (3, 5), 2e-3)
        features = engine.embed_queries(pair)
        delta = {name: value - work[name]
                 for name, value in _work(engine).items()}
        assert delta == {"frames_encoded": 4, "frames_reused": 6,
                         "steps_run": 10, "steps_skipped": 6}
        assert {name: value - obs[name]
                for name, value in _counters().items()} == delta
        np.testing.assert_array_equal(features, extractor.embed_videos(pair))

    def test_zero_capacity_runs_full_forward(self):
        extractor = tiny_extractor(5)
        engine = RetrievalEngine(extractor, num_nodes=2, cache_size=0)
        clips = tiny_videos(6, 3)
        features = engine.embed_queries(clips)
        np.testing.assert_array_equal(features, extractor.embed_videos(clips))
        assert "_jit_incremental" not in extractor.__dict__
        assert _work(engine) == dict.fromkeys(_work(engine), 0)

    def test_fresh_clips_run_the_full_forward(self):
        extractor = tiny_extractor(13)
        engine = RetrievalEngine(extractor, num_nodes=2)
        clips = tiny_videos(14, 3)
        features = engine.embed_queries(clips)
        stats = engine.embedding_cache.stats()
        assert (stats["frames"], stats["states"]) == (0, 0)
        assert "_jit_incremental" not in extractor.__dict__
        np.testing.assert_array_equal(features, extractor.embed_videos(clips))

    def test_mixed_frame_counts_raise_like_the_full_forward(self):
        # A clip with fewer frames beside one that has cached frames
        # must not reach the head, which packs every clip at one length.
        extractor = tiny_extractor(15)
        engine = RetrievalEngine(extractor, num_nodes=2)
        base = tiny_videos(16, 1)[0]
        engine.embed_queries(_pair(base, (3, 5), 1e-3))
        short = Video(base.pixels[:4].copy())
        batch = [_pair(base, (3, 5), 2e-3)[0], short]
        with pytest.raises(ValueError):
            engine.embed_queries(batch)
        with pytest.raises(ValueError):
            extractor.embed_videos(batch)
        assert engine.embedding_cache.stats()["declines"] == \
            {"mixed_shape": 2}

    def test_c3d_declines_and_still_hits_per_clip(self):
        extractor = tiny_extractor(7, backbone="c3d")
        engine = RetrievalEngine(extractor, num_nodes=2)
        declines = counter("retrieval.embed_cache.declines",
                           reason="backbone").value
        clip = tiny_videos(8, 1)
        first = engine.embed_queries(clip)
        second = engine.embed_queries(clip)
        stats = engine.embedding_cache.stats()
        assert stats["declines"] == {"backbone": 1}
        assert counter("retrieval.embed_cache.declines",
                       reason="backbone").value == declines + 1
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["frames_encoded"] == stats["steps_run"] == 0
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, extractor.embed_videos(clip))

    def test_concurrent_threads_bytes_and_counters_exact(self):
        extractor = tiny_extractor(9)
        bases = tiny_videos(10, 3)

        def script(base):
            return [[base]] + [_pair(base, (1, 4, 6), eps)
                               for eps in (1e-3, 2e-3, 3e-3, 4e-3)] + [[base]]

        sequential = RetrievalEngine(extractor, num_nodes=2, cache_size=4096)
        expected = [[sequential.embed_queries(batch) for batch in script(base)]
                    for base in bases]
        engine = RetrievalEngine(extractor, num_nodes=2, cache_size=4096)
        results = [None] * len(bases)
        barrier = threading.Barrier(len(bases))

        def worker(index):
            barrier.wait()
            results[index] = [engine.embed_queries(batch)
                              for batch in script(bases[index])]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(bases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for got, want in zip(results, expected):
            for got_batch, want_batch in zip(got, want):
                np.testing.assert_array_equal(got_batch, want_batch)
        assert engine.embedding_cache.stats() == \
            sequential.embedding_cache.stats()

    def test_sharpened_hashing_head_matches_eager(self):
        head = HashingHead(create_backbone("resnet18", width=2, rng=11),
                           code_bits=16, rng=11)
        head.eval()
        head.requires_grad_(False)
        engine = RetrievalEngine(head, num_nodes=2)
        base = tiny_videos(12, 1)[0]
        engine.embed_queries([base])
        # The second pair traces the resumed head's shape at the old β;
        # the third replays that shape after the sharpen.
        engine.embed_queries(_pair(base, (2, 6), 1e-3))
        engine.embed_queries(_pair(base, (2, 6), 2e-3))
        head.sharpen(4.0)
        pair = _pair(base, (2, 6), 3e-3)
        steps_skipped = engine.embedding_cache.stats()["steps_skipped"]
        codes = engine.embed_queries(pair)
        assert engine.embedding_cache.stats()["steps_skipped"] > steps_skipped
        np.testing.assert_array_equal(codes,
                                      head.embed_videos(pair, fuse=False))
