"""Tests for the shared evaluation protocol and attack factory."""

import numpy as np
import pytest

from repro.attacks.base import Attack
from repro.attacks.report import AttackReport
from repro.experiments import QUICK_SCALE
from repro.experiments.attack_zoo import ATTACK_ROWS, attack_factory
from repro.experiments.protocol import (
    attack_pairs,
    evaluate_attack,
    without_attack_ap,
)
from repro.video import Video


class NullAttack(Attack):
    """Returns the original unchanged — a do-nothing reference."""

    def run(self, original, target):
        return AttackReport(
            adversarial=original.copy(),
            perturbation=np.zeros_like(original.pixels),
            queries=0,
        )


class TestProtocol:
    def test_attack_pairs_deterministic(self, tiny_dataset):
        scale = QUICK_SCALE.replace(pairs=2)
        a = attack_pairs(tiny_dataset, scale)
        b = attack_pairs(tiny_dataset, scale)
        assert [p[0].video_id for p in a] == [p[0].video_id for p in b]

    def test_without_attack_ap_bounds(self, tiny_victim, tiny_dataset):
        pairs = attack_pairs(tiny_dataset, QUICK_SCALE.replace(pairs=2))
        value = without_attack_ap(tiny_victim, pairs)
        assert 0.0 <= value <= 1.0

    def test_evaluate_null_attack_matches_baseline(self, tiny_victim,
                                                   tiny_dataset):
        pairs = attack_pairs(tiny_dataset, QUICK_SCALE.replace(pairs=2))
        outcome = evaluate_attack(lambda i: NullAttack(), tiny_victim, pairs)
        baseline = without_attack_ap(tiny_victim, pairs)
        assert outcome.ap_at_m == pytest.approx(baseline)
        assert outcome.spa == 0
        assert outcome.queries == 0

    def test_evaluate_keeps_results_when_asked(self, tiny_victim,
                                               tiny_dataset):
        pairs = attack_pairs(tiny_dataset, QUICK_SCALE.replace(pairs=2))
        outcome = evaluate_attack(lambda i: NullAttack(), tiny_victim, pairs,
                                  keep_results=True)
        assert len(outcome.results) == 2
        assert len(outcome.per_pair_ap) == 2


class TestAttackZoo:
    @pytest.fixture(scope="class")
    def surrogates(self, tiny_surrogate):
        return {"c3d": tiny_surrogate, "resnet18": tiny_surrogate}

    @pytest.mark.parametrize("name", ATTACK_ROWS)
    def test_every_row_buildable(self, name, tiny_victim, surrogates):
        factory = attack_factory(name, tiny_victim, surrogates, QUICK_SCALE,
                                 k=40)
        attack = factory(0)
        assert isinstance(attack, Attack)

    def test_unknown_attack(self, tiny_victim, surrogates):
        with pytest.raises(KeyError):
            attack_factory("fgsm", tiny_victim, surrogates, QUICK_SCALE, k=10)

    def test_overrides_applied(self, tiny_victim, surrogates):
        factory = attack_factory("duo-c3d", tiny_victim, surrogates,
                                 QUICK_SCALE, k=40, n=2, tau=50.0,
                                 iter_num_h=3)
        attack = factory(0)
        assert attack.config.n == 2
        assert attack.config.tau == pytest.approx(50.0)
        assert attack.config.tau_unit() == pytest.approx(50.0 / 255.0)
        assert attack.config.rounds == 3

    def test_factories_vary_rng_per_pair(self, tiny_victim, surrogates,
                                         attack_pair, tiny_dataset):
        factory = attack_factory("vanilla", tiny_victim, surrogates,
                                 QUICK_SCALE.replace(query_iterations=3),
                                 k=30)
        result_a = factory(0).run(*attack_pair)
        result_b = factory(1).run(*attack_pair)
        # Different per-pair seeds explore different coordinates.
        assert not np.array_equal(result_a.perturbation,
                                  result_b.perturbation) or \
            result_a.perturbation.any() == False  # noqa: E712 — both zero is OK
