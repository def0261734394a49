"""Tests for the deep-hashing retrieval head and Hamming search."""

import numpy as np
import pytest

from repro.models import create_backbone
from repro.models.hashing import HashingHead
from repro.nn import Tensor
from repro.retrieval import RetrievalEngine
from repro.retrieval.similarity import hamming
from repro.training import MetricTrainer
from repro.losses import ArcFaceLoss


@pytest.fixture(scope="module")
def head():
    return HashingHead(create_backbone("c3d", width=2, rng=0), code_bits=16,
                       rng=1)


class TestHashingHead:
    def test_relaxed_codes_in_open_interval(self, head, rng):
        codes = head(Tensor(rng.random((2, 3, 8, 12, 12)))).data
        assert codes.shape == (2, 16)
        assert np.all(np.abs(codes) < 1.0)

    def test_sharpen_pushes_toward_binary(self, rng):
        head = HashingHead(create_backbone("c3d", width=2, rng=0),
                           code_bits=16, rng=1)
        x = Tensor(rng.random((2, 3, 8, 12, 12)))
        soft = np.abs(head(x).data).mean()
        head.sharpen(8.0)
        hard = np.abs(head(x).data).mean()
        assert hard > soft

    def test_sharpen_retraces_replayed_codes(self, tiny_dataset):
        head = HashingHead(create_backbone("c3d", width=2, rng=0),
                           code_bits=16, rng=1)
        videos = tiny_dataset.test[:2]
        before = head.embed_videos(videos)
        head.sharpen(4.0)
        replayed = head.embed_videos(videos)
        assert not np.array_equal(replayed, before)
        np.testing.assert_array_equal(replayed,
                                      head.embed_videos(videos, fuse=False))

    def test_binary_codes_are_pm_one(self, head, tiny_dataset):
        codes = head.binary_codes(tiny_dataset.test[:3])
        assert set(np.unique(codes)) <= {-1.0, 1.0}

    def test_trainable_with_metric_loss(self, tiny_dataset):
        head = HashingHead(create_backbone("c3d", width=2, rng=3),
                           code_bits=16, rng=4)
        trainer = MetricTrainer(ArcFaceLoss(tiny_dataset.num_classes, 16,
                                            rng=5),
                                epochs=1, rng=6)
        history = trainer.train(head, tiny_dataset.train)
        assert len(history.losses) == 1
        assert np.isfinite(history.losses[0])


class TestHammingSimilarity:
    def test_identical_codes_score_zero(self, rng):
        code = rng.choice([-1.0, 1.0], size=16)
        scores = hamming(code, code[None, :])
        assert scores[0] == pytest.approx(0.0)

    def test_opposite_codes_score_minus_bits(self, rng):
        code = rng.choice([-1.0, 1.0], size=16)
        scores = hamming(code, -code[None, :])
        assert scores[0] == pytest.approx(-16.0)

    def test_counts_flipped_bits(self):
        query = np.ones(8)
        other = np.ones(8)
        other[:3] = -1.0
        assert hamming(query, other[None, :])[0] == pytest.approx(-3.0)

    def test_binarizes_relaxed_inputs(self):
        query = np.array([0.2, -0.7, 0.9])
        gallery = np.array([[0.9, 0.1, 0.3]])  # signs differ at bit 1 only
        assert hamming(query, gallery)[0] == pytest.approx(-1.0)


class TestHashRetrievalEndToEnd:
    def test_hash_engine_retrieves_same_class(self, tiny_dataset):
        head = HashingHead(create_backbone("c3d", width=2, rng=7),
                           code_bits=24, rng=8)
        trainer = MetricTrainer(
            ArcFaceLoss(tiny_dataset.num_classes, 24, rng=9), epochs=2,
            rng=10,
        )
        trainer.train(head, tiny_dataset.train)
        head.sharpen(8.0)
        head.requires_grad_(False)
        engine = RetrievalEngine(head, similarity="hamming", num_nodes=2)
        engine.index_videos(tiny_dataset.train)
        # Querying with a gallery member returns itself at rank 1.
        probe = tiny_dataset.train[0]
        result = engine.retrieve(probe, m=4)
        assert result.ids[0] == probe.video_id
