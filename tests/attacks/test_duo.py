"""Integration tests for the DUO attack pipeline."""

import numpy as np
import pytest

from repro.attacks import AttackConfig, SparseTransfer, TransferPriors, \
    build_attack
from repro.metrics.perturbation import sparsity
from repro.qa.pairs import duo_query_attack


@pytest.fixture(scope="module")
def transfer_priors(tiny_surrogate, attack_pair):
    original, target = attack_pair
    transfer = SparseTransfer(tiny_surrogate, k=100, n=3, tau=30,
                              outer_iters=1, theta_steps=3)
    return transfer.run(original, target)


class TestSparseTransfer:
    def test_masks_respect_budgets(self, transfer_priors):
        assert transfer_priors.pixel_mask.sum() == 100
        assert transfer_priors.frame_mask.sum() == 3

    def test_theta_within_budget(self, transfer_priors):
        assert np.abs(transfer_priors.theta).max() <= 30.0 / 255.0 + 1e-9

    def test_perturbation_sparsity(self, transfer_priors, attack_pair):
        phi = transfer_priors.perturbation()
        assert (np.abs(phi) > 0).sum() <= 100

    def test_invalid_constraint(self, tiny_surrogate):
        with pytest.raises(ValueError):
            SparseTransfer(tiny_surrogate, k=10, n=2, constraint="l1")

    def test_l2_constraint_budget(self, tiny_surrogate, attack_pair):
        original, target = attack_pair
        transfer = SparseTransfer(tiny_surrogate, k=50, n=2, tau=30,
                                  constraint="l2", outer_iters=1,
                                  theta_steps=2)
        priors = transfer.run(original, target)
        radius = (30.0 / 255.0) * np.sqrt(50)
        assert np.linalg.norm(priors.theta) <= radius + 1e-6

    def test_target_init_seeds_theta(self, tiny_surrogate, attack_pair):
        original, target = attack_pair
        transfer = SparseTransfer(tiny_surrogate, k=50, n=2, tau=30,
                                  outer_iters=0, theta_steps=0,
                                  target_init=True)
        priors = transfer.run(original, target)
        expected = np.clip(target.pixels - original.pixels,
                           -30.0 / 255.0, 30.0 / 255.0)
        np.testing.assert_allclose(priors.theta, expected)

    def test_reduces_surrogate_loss(self, tiny_surrogate, attack_pair):
        original, target = attack_pair
        transfer = SparseTransfer(tiny_surrogate, k=150, n=4, tau=40,
                                  outer_iters=1, theta_steps=4)
        priors = transfer.run(original, target)
        adversarial = original.perturbed(priors.perturbation())
        f = tiny_surrogate.embed_videos
        before = np.linalg.norm(f(original)[0] - f(target)[0])
        after = np.linalg.norm(f(adversarial)[0] - f(target)[0])
        assert after <= before + 1e-6


class TestSparseQuery:
    def test_preserves_support(self, tiny_victim, attack_pair,
                               transfer_priors):
        original, target = attack_pair
        report = duo_query_attack(transfer_priors, 6, tiny_victim.service,
                                  0).run(original, target)
        phi = report.adversarial.pixels - original.pixels
        outside = ~transfer_priors.support()
        np.testing.assert_allclose(phi[outside], 0.0, atol=1e-12)
        assert len(report.trace) >= 1

    def test_respects_tau(self, tiny_victim, attack_pair, transfer_priors):
        original, target = attack_pair
        report = duo_query_attack(transfer_priors, 6, tiny_victim.service,
                                  0).run(original, target)
        phi = report.adversarial.pixels - original.pixels
        assert np.abs(phi).max() <= 30.0 / 255.0 + 1e-9

    def test_empty_support_noop(self, tiny_victim, attack_pair):
        original, target = attack_pair
        priors = TransferPriors.fresh(original.pixels.shape)  # theta = 0
        report = duo_query_attack(priors, 3, tiny_victim.service, 0).run(
            original, target)
        np.testing.assert_allclose(report.adversarial.pixels, original.pixels)
        assert report.trace == []

    def test_invalid_tie_rule(self, tiny_victim, transfer_priors):
        config = AttackConfig(strategy="duo-query",
                              sampler={"priors": transfer_priors},
                              feedback={"tie_rule": "maybe"})
        with pytest.raises(ValueError, match="tie_rule"):
            build_attack(config, service=tiny_victim.service)


def _duo(service, surrogate, k, n, iterations, rounds, seed):
    return build_attack(
        AttackConfig(strategy="duo", k=k, n=n, tau=30,
                     iterations=iterations, rounds=rounds, seed=seed,
                     sampler={"outer_iters": 1, "theta_steps": 2}),
        service=service, surrogate=surrogate)


class TestDUOPipeline:
    def test_full_attack(self, tiny_victim, tiny_surrogate, attack_pair):
        original, target = attack_pair
        attack = _duo(tiny_victim.service, tiny_surrogate, k=120, n=3,
                      iterations=8, rounds=2, seed=9)
        result = attack.run(original, target)
        assert result.queries > 0
        assert result.stats.frames <= result.perturbation.shape[0]
        # Two loops, each bounded by τ, so total drift is at most 2τ.
        assert result.stats.linf <= 2 * 30.0 / 255.0 + 1e-9
        assert result.metadata["rounds"] == 2
        assert result.metadata["k"] == 120

    def test_transfer_only_no_queries(self, tiny_victim, tiny_surrogate,
                                      attack_pair):
        original, target = attack_pair
        transfer = SparseTransfer(tiny_surrogate, k=80, n=2, tau=30,
                                  outer_iters=1, theta_steps=2)
        before = tiny_victim.service.query_count
        adversarial = original.perturbed(
            transfer.run(original, target).perturbation())
        assert tiny_victim.service.query_count == before
        assert sparsity(adversarial.pixels - original.pixels) <= 80

    def test_single_loop_respects_tau_strictly(self, tiny_victim,
                                               tiny_surrogate, attack_pair):
        attack = _duo(tiny_victim.service, tiny_surrogate, k=80, n=2,
                      iterations=4, rounds=1, seed=1)
        result = attack.run(*attack_pair)
        assert result.stats.linf <= 30.0 / 255.0 + 1e-9
