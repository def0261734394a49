"""Tests for the untargeted attack extension."""

import numpy as np
import pytest

from repro.attacks import AttackConfig, RetrievalObjective, build_attack
from repro.attacks.duo import SparseTransfer


class TestUntargetedObjective:
    def test_value_range(self, tiny_victim, attack_pair):
        original, _ = attack_pair
        objective = RetrievalObjective(tiny_victim.service, original,
                                       eta=1.0)
        value = objective.value(original)
        assert value == pytest.approx(2.0)  # identical list: H = 1, + eta

    def test_reference_costs_one_query(self, tiny_victim, attack_pair):
        original, _ = attack_pair
        before = tiny_victim.service.query_count
        objective = RetrievalObjective(tiny_victim.service, original)
        assert tiny_victim.service.query_count == before + 1
        assert objective.queries == 1

    def test_escape_rate_bounds(self, tiny_victim, attack_pair):
        original, _ = attack_pair
        objective = RetrievalObjective(tiny_victim.service, original)
        assert objective.escape_rate(original) == 0.0


class TestUntargetedTransfer:
    def test_increases_surrogate_distance(self, tiny_surrogate, attack_pair):
        original, _ = attack_pair
        transfer = SparseTransfer(tiny_surrogate, k=200, n=4, tau=40,
                                  outer_iters=1, theta_steps=4,
                                  targeted=False, rng=0)
        priors = transfer.run(original, None)
        adversarial = original.perturbed(priors.perturbation())
        f = tiny_surrogate.embed_videos
        moved = np.linalg.norm(f(adversarial)[0] - f(original)[0])
        assert moved > 0.0

    def test_budgets_still_hold(self, tiny_surrogate, attack_pair):
        original, _ = attack_pair
        transfer = SparseTransfer(tiny_surrogate, k=100, n=3, tau=30,
                                  outer_iters=1, theta_steps=2,
                                  targeted=False, rng=1)
        priors = transfer.run(original, None)
        assert priors.pixel_mask.sum() == 100
        assert priors.frame_mask.sum() == 3
        assert np.abs(priors.theta).max() <= 30.0 / 255.0 + 1e-9


class TestUntargetedDUO:
    def test_run_untargeted(self, tiny_victim, tiny_surrogate, attack_pair):
        original, _ = attack_pair
        attack = build_attack(
            AttackConfig(strategy="duo", k=150, n=3, tau=30, iterations=10,
                         rounds=1, seed=2,
                         sampler={"outer_iters": 1, "theta_steps": 2}),
            service=tiny_victim.service, surrogate=tiny_surrogate)
        before = tiny_victim.service.query_count
        result = attack.run(original, None)
        # Untargeted: one reference query for the original's list, none
        # for a target.
        assert result.queries == len(result.trace) + 1
        assert tiny_victim.service.query_count - before == result.queries
        objective = RetrievalObjective(tiny_victim.service, original)
        assert 0.0 <= objective.escape_rate(result.adversarial) <= 1.0
        assert result.queries > 0
        assert result.stats.frames <= original.num_frames
        assert result.adversarial.pixels.min() >= 0.0
        assert result.adversarial.pixels.max() <= 1.0
