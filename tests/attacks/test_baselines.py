"""Integration tests for the baseline attacks on the tiny victim system."""

import numpy as np
import pytest

from repro.attacks import AttackConfig, build_attack, motion_saliency
from repro.attacks.heu import saliency_support
from repro.attacks.vanilla import random_support


class TestRandomSupport:
    def test_budgets_respected(self, rng):
        support = random_support((8, 4, 4, 3), k=20, n=3, rng=rng)
        assert support.sum() == 20
        frames_touched = support.reshape(8, -1).any(axis=1).sum()
        assert frames_touched <= 3

    def test_budget_clamped_to_capacity(self, rng):
        support = random_support((4, 2, 2, 3), k=1000, n=2, rng=rng)
        assert support.sum() == 2 * 12  # n frames × per-frame values

    def test_deterministic_given_rng(self):
        a = random_support((4, 4, 4, 3), 10, 2, rng=7)
        b = random_support((4, 4, 4, 3), 10, 2, rng=7)
        np.testing.assert_array_equal(a, b)


class TestMotionSaliency:
    def test_shapes(self, attack_pair):
        original, _ = attack_pair
        frame_scores, pixel_saliency = motion_saliency(original)
        assert frame_scores.shape == (original.num_frames,)
        assert pixel_saliency.shape == original.pixels.shape

    def test_static_video_zero_saliency(self):
        from repro.video import Video

        static = Video(np.full((4, 4, 4, 3), 0.5))
        frame_scores, pixel_saliency = motion_saliency(static)
        np.testing.assert_allclose(frame_scores, 0.0)
        np.testing.assert_allclose(pixel_saliency, 0.0)

    def test_saliency_support_budgets(self, attack_pair, rng):
        original, _ = attack_pair
        support = saliency_support(original, k=50, n=3, rng=rng)
        assert support.sum() == 50
        assert support.reshape(original.num_frames, -1).any(axis=1).sum() <= 3

    def test_salient_pixels_prefer_motion(self, attack_pair, rng):
        original, _ = attack_pair
        _, pixel_saliency = motion_saliency(original)
        support = saliency_support(original, k=30, n=2, random_pixels=False,
                                   rng=rng)
        chosen_saliency = pixel_saliency[support].mean()
        assert chosen_saliency >= pixel_saliency.mean()


class TestVanillaAttack:
    def test_run_produces_valid_ae(self, tiny_victim, attack_pair):
        original, target = attack_pair
        attack = build_attack(
            AttackConfig(strategy="vanilla", k=60, n=3, tau=30,
                         iterations=10, seed=1), service=tiny_victim.service)
        result = attack.run(original, target)
        assert result.adversarial.pixels.min() >= 0.0
        assert result.adversarial.pixels.max() <= 1.0
        assert result.stats.linf <= 30.0 / 255.0 + 1e-9
        assert result.stats.frames <= 3
        assert result.queries >= 3
        assert result.stats.spa <= 60

    def test_objective_trace_recorded(self, tiny_victim, attack_pair):
        attack = build_attack(
            AttackConfig(strategy="vanilla", k=40, n=2, tau=30,
                         iterations=5, seed=2), service=tiny_victim.service)
        result = attack.run(*attack_pair)
        assert len(result.trace) >= 1


class TestTimiAttack:
    def test_dense_transfer(self, tiny_surrogate, attack_pair):
        original, target = attack_pair
        attack = build_attack(
            AttackConfig(strategy="timi", tau=30, iterations=3),
            surrogate=tiny_surrogate)
        result = attack.run(original, target)
        assert result.queries == 0
        assert result.stats.linf <= 30.0 / 255.0 + 1e-9
        # TIMI is dense: it touches (almost) every frame.
        assert result.stats.frames == original.num_frames

    def test_even_kernel_rejected(self, tiny_surrogate):
        with pytest.raises(ValueError, match="odd"):
            build_attack(AttackConfig(strategy="timi",
                                      feedback={"kernel_size": 4}),
                         surrogate=tiny_surrogate)

    def test_reduces_surrogate_distance(self, tiny_surrogate, attack_pair):
        original, target = attack_pair
        attack = build_attack(
            AttackConfig(strategy="timi", tau=50, iterations=5),
            surrogate=tiny_surrogate)
        result = attack.run(original, target)
        f = tiny_surrogate.embed_videos
        before = np.linalg.norm(f(original)[0] - f(target)[0])
        after = np.linalg.norm(f(result.adversarial)[0] - f(target)[0])
        assert after <= before + 1e-6


class TestHeuAttacks:
    def test_heu_nes_runs(self, tiny_victim, attack_pair):
        attack = build_attack(
            AttackConfig(strategy="heu-nes", k=60, n=3, tau=30,
                         iterations=2, seed=3, feedback={"samples": 2}),
            service=tiny_victim.service)
        result = attack.run(*attack_pair)
        assert result.stats.linf <= 30.0 / 255.0 + 1e-9
        assert result.queries >= 2 + 2 * (2 * 2 + 1)

    def test_heu_sim_runs(self, tiny_victim, attack_pair):
        attack = build_attack(
            AttackConfig(strategy="heu-sim", k=60, n=3, tau=30,
                         iterations=8, seed=4), service=tiny_victim.service)
        result = attack.run(*attack_pair)
        assert result.stats.frames <= 3
        assert result.stats.spa <= 60
