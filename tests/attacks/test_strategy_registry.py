"""Conformance suite: every registered strategy composition behaves.

For each entry in :data:`repro.attacks.registry.ATTACK_STRATEGIES` the
suite builds the attack from its name alone, runs a few steps on the
tiny qa world, and checks the shared contracts: valid pixel ranges, an
ℓ∞-bounded perturbation, a conserved query ledger, an honored budget
cap, and bit-identical checkpoint/resume across a mid-attack outage.
"""

import numpy as np
import pytest

from repro.attacks.config import AttackConfig
from repro.attacks.registry import (
    ATTACK_ENV,
    ATTACK_STRATEGIES,
    DEFAULT_STRATEGY,
    build_attack,
    default_strategy,
    main as registry_main,
    resolve_strategy,
)
from repro.attacks.strategy import (
    ComposedAttack,
    FeedbackModel,
    PerturbationBasis,
    SupportSampler,
)
from repro.errors import RetrievalUnavailable
from repro.qa.invariants import check_budget_conservation
from repro.qa.pairs import _qa_priors
from repro.qa.world import build_world, tiny_extractor
from repro.resilience import FaultPlan, ResilienceConfig

from tests.resilience.conftest import build_service, make_videos

#: ``duo-query`` needs externally computed transfer priors injected via
#: ``config.sampler`` — exercised separately, not grid-buildable.
GRID = sorted(set(ATTACK_STRATEGIES) - {"duo-query"})

#: Compositions that consume service queries (outage-resumable).
QUERYING = [name for name in GRID
            if ATTACK_STRATEGIES[name].needs_service]


def make_config(name: str, iterations: int = 3, **overrides) -> AttackConfig:
    extras: dict = {"k": 40, "n": 2, "tau": 30.0, "iterations": iterations}
    if name == "duo":
        extras.update(rounds=2, sampler={"outer_iters": 1, "theta_steps": 2})
    elif name == "heu-nes":
        extras.update(feedback={"samples": 2})
    extras.update(overrides)
    return AttackConfig(strategy=name, **extras)


def make_attack(name: str, service, seed: int = 51, **overrides):
    entry = ATTACK_STRATEGIES[name]
    surrogate = tiny_extractor(seed + 23) if entry.needs_surrogate else None
    return build_attack(make_config(name, **overrides),
                        service=service if entry.needs_service else None,
                        surrogate=surrogate,
                        rng=np.random.default_rng(seed + 17))


class TestRegistry:
    def test_every_entry_satisfies_the_protocols(self):
        for name, entry in ATTACK_STRATEGIES.items():
            if name == "duo-query":
                continue  # needs priors to construct
            config = make_config(name)
            sampler = entry.sampler(**dict(config.sampler))
            basis = entry.basis(**dict(config.basis))
            feedback = entry.feedback(**dict(config.feedback))
            assert isinstance(sampler, SupportSampler), name
            assert isinstance(basis, PerturbationBasis), name
            assert isinstance(feedback, FeedbackModel), name

    def test_resolve_is_case_insensitive(self):
        assert resolve_strategy("DUO") is ATTACK_STRATEGIES["duo"]

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="vanilla"):
            resolve_strategy("definitely-not-an-attack")

    def test_default_strategy_reads_env(self, monkeypatch):
        monkeypatch.delenv(ATTACK_ENV, raising=False)
        assert default_strategy() == DEFAULT_STRATEGY
        monkeypatch.setenv(ATTACK_ENV, "qair")
        assert default_strategy() == "qair"

    def test_cli_list_prints_every_strategy(self, capsys):
        assert registry_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ATTACK_STRATEGIES:
            assert name in out

    def test_build_rejects_missing_service(self):
        with pytest.raises(ValueError, match="service"):
            build_attack(make_config("vanilla"))

    def test_build_rejects_missing_surrogate(self):
        with pytest.raises(ValueError, match="surrogate"):
            build_attack(make_config("timi"))


class TestOverrideValidation:
    """A misspelled component override fails loudly, naming its component."""

    @pytest.mark.parametrize("name", sorted(ATTACK_STRATEGIES))
    def test_misspelled_feedback_key_raises(self, name):
        world = build_world(51, cache_size=0)
        sampler = {"priors": _qa_priors(world.original.pixels.shape, 3)} \
            if name == "duo-query" else {}
        config = AttackConfig(strategy=name, sampler=sampler,
                              feedback={"tie_rul": "stay"})
        with pytest.raises(TypeError, match="Feedback.*tie_rul"):
            build_attack(config, service=world.service,
                         surrogate=tiny_extractor(3))

    @pytest.mark.parametrize("name", GRID)
    def test_misspelled_basis_key_raises(self, name):
        config = AttackConfig(strategy=name, basis={"rnak": 2})
        with pytest.raises(TypeError, match="Basis"):
            build_attack(config, service=object(),
                         surrogate=tiny_extractor(3))

    def test_unknown_tie_rule_rejected(self):
        config = AttackConfig(strategy="vanilla",
                              feedback={"tie_rule": "maybe"})
        with pytest.raises(ValueError, match="tie_rule"):
            build_attack(config, service=object())


class TestConformance:
    @pytest.mark.parametrize("name", GRID)
    def test_runs_and_conserves_the_ledger(self, name):
        world = build_world(51, cache_size=0)
        attack = make_attack(name, world.service)
        assert isinstance(attack, ComposedAttack)
        assert attack.name == name

        report = attack.run(world.original, world.target)

        assert report.adversarial.pixels.min() >= 0.0
        assert report.adversarial.pixels.max() <= 1.0
        # Each round is ℓ∞-bounded by τ; multi-round strategies (duo)
        # re-anchor per round, so the total bound scales with rounds.
        rounds = report.metadata["rounds"]
        assert np.abs(report.perturbation).max() <= \
            rounds * 30.0 / 255.0 + 1e-9
        assert report.queries == world.service.query_count
        assert len(report.trace) > 0 or not \
            ATTACK_STRATEGIES[name].needs_service
        assert report.metadata["strategy"] == name
        check_budget_conservation(world.service)

    @pytest.mark.parametrize("name", QUERYING)
    def test_budget_caps_queries(self, name):
        world = build_world(52, cache_size=0)
        attack = make_attack(name, world.service, iterations=50, budget=12)
        report = attack.run(world.original, world.target)
        assert 0 < report.queries <= 12
        check_budget_conservation(world.service)

    def test_deterministic_given_seed(self):
        digests = []
        for _ in range(2):
            world = build_world(53, cache_size=0)
            report = make_attack("rl-sparse", world.service, seed=9).run(
                world.original, world.target)
            digests.append((report.adversarial.pixels.tobytes(),
                            tuple(report.trace), report.queries))
        assert digests[0] == digests[1]


class TestEpsilonScale:
    @pytest.mark.parametrize("name", ["vanilla", "lowrank"])
    def test_scales_the_basis_default_step(self, name):
        """τ on pixels, ``epsilon_hint`` on coefficients, both honoured."""
        def trace(**feedback):
            world = build_world(73)
            attack = build_attack(
                AttackConfig(strategy=name, k=256, n=8, tau=128.0,
                             iterations=8, feedback=feedback),
                service=world.service, rng=np.random.default_rng(5))
            return attack.run(world.original, world.target).trace

        default = trace()
        assert trace(epsilon_scale=1.0) == default
        assert trace(epsilon_scale=0.25) != default


class TestCheckpointResume:
    @pytest.mark.parametrize("name", QUERYING)
    def test_bit_identical_after_outage(self, name, tmp_path):
        original, target = make_videos(2, seed=99)
        resilience = ResilienceConfig(replication=1, retry=None,
                                      breaker=None, on_data_loss="raise")
        services = {label: build_service(num_nodes=2, resilience=resilience)
                    for label in ("clean", "faulted")}
        plan = FaultPlan(seed=1).outage("node-0", 3, 6)
        path = tmp_path / f"{name}.pkl"

        def run(label, checkpoint_path=None):
            attack = make_attack(name, services[label], seed=51)
            return attack.run(original, target,
                              checkpoint_path=checkpoint_path)

        clean = run("clean")

        failures = 0
        with plan.install(services["faulted"].engine.gallery):
            while True:
                try:
                    resumed = run("faulted", checkpoint_path=str(path))
                    break
                except RetrievalUnavailable:
                    failures += 1
                    assert path.exists() or (tmp_path / f"{name}.pkl.round0"
                                             ).exists()
                    assert failures < 50

        assert failures >= 1, "the outage never interrupted the attack"
        assert resumed.trace == clean.trace
        np.testing.assert_array_equal(resumed.adversarial.pixels,
                                      clean.adversarial.pixels)
        assert resumed.queries == clean.queries
        assert services["faulted"].query_count == \
            services["clean"].query_count
        assert not path.exists(), "completion must delete the checkpoint"
