"""Attack factories shared by the experiment runners.

Centralizes how each named attack of the paper's tables is instantiated
from an :class:`ExperimentScale`, a victim, and surrogates, so that every
table compares identically configured attacks.

Every row resolves through :func:`repro.attacks.registry.build_attack`
with an :class:`~repro.attacks.config.AttackConfig`; each composition
is pinned bit-identical to its monolithic loop by the
``attacks.composed_vs_legacy`` qa oracle.
"""

from __future__ import annotations

from typing import Callable

from repro.attacks.base import Attack
from repro.attacks.config import AttackConfig
from repro.attacks.registry import build_attack
from repro.experiments.config import ExperimentScale
from repro.models.feature_extractor import FeatureExtractor
from repro.training.victim import VictimSystem
from repro.utils.seeding import SeedSequence

#: Row order used by Table II.
ATTACK_ROWS = (
    "timi-c3d",
    "timi-res18",
    "heu-nes",
    "heu-sim",
    "vanilla",
    "duo-c3d",
    "duo-res18",
)


def attack_factory(name: str, victim: VictimSystem,
                   surrogates: dict[str, FeatureExtractor],
                   scale: ExperimentScale, k: int,
                   **overrides) -> Callable[[int], Attack]:
    """Return a per-pair factory for the named attack.

    ``surrogates`` maps surrogate backbone names (``"c3d"``, ``"resnet18"``)
    to trained extractors.  ``overrides`` tweak individual attack knobs
    (used by the sweep tables, e.g. ``n=…``, ``tau=…``, ``iter_num_h=…``).
    """
    seeds = SeedSequence(scale.seed)
    params = dict(
        n=scale.n, tau=scale.tau, k=k,
        iter_num_q=scale.iter_num_q, iter_num_h=scale.iter_num_h,
        constraint="linf",
    )
    params.update(overrides)

    def rng_for(pair: int):
        return seeds.rng("attack", name, pair)

    if name.startswith("duo-"):
        surrogate = surrogates[_surrogate_key(name)]
        config = AttackConfig(
            strategy="duo", k=params["k"], n=params["n"], tau=params["tau"],
            iterations=params["iter_num_q"], rounds=params["iter_num_h"],
            sampler={"constraint": params["constraint"],
                     "outer_iters": scale.transfer_outer_iters,
                     "theta_steps": scale.theta_steps})

        def make(pair: int) -> Attack:
            return build_attack(config, service=victim.service,
                                surrogate=surrogate, rng=rng_for(pair))
        return make

    if name.startswith("timi-"):
        surrogate = surrogates[_surrogate_key(name)]
        config = AttackConfig(strategy="timi", tau=params["tau"],
                              iterations=scale.timi_iterations)

        def make(pair: int) -> Attack:
            return build_attack(config, surrogate=surrogate)
        return make

    if name == "vanilla":
        config = AttackConfig(strategy="vanilla", k=params["k"],
                              n=params["n"], tau=params["tau"],
                              iterations=scale.query_iterations)

        def make(pair: int) -> Attack:
            return build_attack(config, service=victim.service,
                                rng=rng_for(pair))
        return make

    if name == "heu-nes":
        config = AttackConfig(strategy="heu-nes", k=params["k"],
                              n=params["n"], tau=params["tau"],
                              iterations=scale.nes_iterations,
                              feedback={"samples": scale.nes_samples})

        def make(pair: int) -> Attack:
            return build_attack(config, service=victim.service,
                                rng=rng_for(pair))
        return make

    if name == "heu-sim":
        config = AttackConfig(strategy="heu-sim", k=params["k"],
                              n=params["n"], tau=params["tau"],
                              iterations=scale.query_iterations)

        def make(pair: int) -> Attack:
            return build_attack(config, service=victim.service,
                                rng=rng_for(pair))
        return make

    raise KeyError(f"unknown attack {name!r}; known: {ATTACK_ROWS}")


def _surrogate_key(attack_name: str) -> str:
    suffix = attack_name.split("-", 1)[1]
    return {"c3d": "c3d", "res18": "resnet18"}[suffix]
