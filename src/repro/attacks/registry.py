"""Attack-strategy registry: name → {sampler × basis × feedback}.

Same pattern as :mod:`repro.losses.registry` and
:mod:`repro.hashindex.tiers`: a flat dict of named factories plus an
environment default, so every layer — experiments, benchmarks, the qa
oracles — selects an adversary with one string:

* programmatically, via ``build_attack(AttackConfig(strategy=...))``;
* globally, via the ``REPRO_ATTACK`` environment variable.

The paper's attack and its baselines:

``vanilla``
    random frames/pixels × sparse pixels × SimBA.
``heu-sim`` / ``heu-nes``
    motion-saliency frames × sparse pixels × SimBA / NES.
``timi``
    dense × pixels × surrogate transfer (zero queries).
``duo`` / ``duo-query``
    transfer-derived frame-pixel search (or fixed priors) × sparse
    pixels × SimBA with DUO's ``attack.duo.query`` surface.  Without a
    target video (``attack.run(original, None)``) DUO runs untargeted.

Further adversaries:

``rl-sparse``
    EXP3 bandit learning frame selection from rank-shift rewards.
``lowrank``
    TenAd-style rank-``r`` factor basis searched with SimBA.
``qair``
    QAIR-style top-``k`` relevance feedback with adaptive steps and
    early exit.

List them from the shell::

    python -m repro.attacks.registry --list
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.attacks.config import AttackConfig
from repro.attacks.strategy.bases import LowRankBasis, PixelBasis
from repro.attacks.strategy.composed import ComposedAttack
from repro.attacks.strategy.feedback import NesFeedback, QairFeedback, \
    SimbaFeedback, TransferFeedback
from repro.attacks.strategy.samplers import DenseSampler, PriorSampler, \
    RandomSampler, RLFrameSampler, SaliencySampler, TransferSampler

#: Name of the environment variable selecting the default strategy.
ATTACK_ENV = "REPRO_ATTACK"

#: The strategy used when nothing selects one.
DEFAULT_STRATEGY = "duo"

#: DUO's historical observable surface for the SimBA stage.
_duo_simba = partial(SimbaFeedback, metric_prefix="attack.duo.query",
                     checkpoint_algo="sparse_query")


@dataclass(frozen=True)
class StrategyEntry:
    """One registered composition: three component factories + needs."""

    name: str
    sampler: Callable[..., object]
    basis: Callable[..., object]
    feedback: Callable[..., object]
    description: str
    needs_surrogate: bool = False
    needs_service: bool = True

    def composition(self) -> str:
        """``sampler × basis × feedback`` factory names for display."""
        def label(factory) -> str:
            target = factory.func if isinstance(factory, partial) else factory
            return target.__name__
        return " × ".join(label(f) for f in
                          (self.sampler, self.basis, self.feedback))


ATTACK_STRATEGIES: dict[str, StrategyEntry] = {}


def register_strategy(entry: StrategyEntry) -> None:
    """Register (or override) a named composition."""
    ATTACK_STRATEGIES[entry.name] = entry


register_strategy(StrategyEntry(
    "vanilla", RandomSampler, PixelBasis, SimbaFeedback,
    "random frames/pixels + SimBA (paper §V-B baseline)"))
register_strategy(StrategyEntry(
    "heu-sim", partial(SaliencySampler, random_pixels=True), PixelBasis,
    SimbaFeedback,
    "motion-saliency frames, random pixels + SimBA (HEU-Sim)"))
register_strategy(StrategyEntry(
    "heu-nes", SaliencySampler, PixelBasis, NesFeedback,
    "motion-saliency frames/pixels + NES (HEU-Nes)"))
register_strategy(StrategyEntry(
    "timi", DenseSampler, PixelBasis, TransferFeedback,
    "dense surrogate transfer, zero queries (TIMI)",
    needs_surrogate=True, needs_service=False))
register_strategy(StrategyEntry(
    "duo", TransferSampler, PixelBasis, _duo_simba,
    "transfer frame-pixel search + sparse SimBA rectification (DUO)",
    needs_surrogate=True))
register_strategy(StrategyEntry(
    "duo-query", PriorSampler, PixelBasis, _duo_simba,
    "DUO's query stage over fixed priors (sampler={'priors': ...})"))
register_strategy(StrategyEntry(
    "rl-sparse", RLFrameSampler, PixelBasis, SimbaFeedback,
    "EXP3 bandit learns frame selection from rank-shift rewards"))
register_strategy(StrategyEntry(
    "lowrank", DenseSampler, LowRankBasis, SimbaFeedback,
    "TenAd-style low-rank (T,H,W) factor basis searched with SimBA"))
register_strategy(StrategyEntry(
    "qair", RandomSampler, PixelBasis, QairFeedback,
    "QAIR-style top-k relevance feedback, adaptive step + early exit"))


def default_strategy() -> str:
    """The strategy selected by ``REPRO_ATTACK`` (or the built-in).

    Unknown names raise from :func:`resolve_strategy`; empty/unset means
    the built-in default.
    """
    from repro.utils.envflags import env_str

    return env_str(ATTACK_ENV, DEFAULT_STRATEGY).lower()


def resolve_strategy(name: str | None = None) -> StrategyEntry:
    """The entry registered under ``name`` (``None`` → env default)."""
    key = default_strategy() if name is None else str(name).strip().lower()
    if key not in ATTACK_STRATEGIES:
        raise KeyError(f"unknown attack strategy {key!r}; available: "
                       f"{sorted(ATTACK_STRATEGIES)}")
    return ATTACK_STRATEGIES[key]


def build_attack(config: AttackConfig | None = None, *, service=None,
                 surrogate=None, rng=None) -> ComposedAttack:
    """Build the composition named by ``config.strategy``.

    ``service`` is the black-box victim (required by every query-based
    strategy), ``surrogate`` the white-box transfer model (required by
    ``timi`` and ``duo``).  ``rng`` overrides ``config.seed`` when given
    (a Generator passes through unchanged).
    """
    config = config if config is not None else AttackConfig()
    entry = resolve_strategy(config.strategy)
    if entry.needs_service and service is None:
        raise ValueError(f"strategy {entry.name!r} queries a victim "
                         "service; pass service=...")
    if entry.needs_surrogate and surrogate is None:
        raise ValueError(f"strategy {entry.name!r} needs a surrogate "
                         "model; pass surrogate=...")
    sampler = entry.sampler(**dict(config.sampler))
    basis = entry.basis(**dict(config.basis))
    feedback = entry.feedback(**dict(config.feedback))
    return ComposedAttack(entry.name, sampler, basis, feedback, config,
                          service=service, surrogate=surrogate, rng=rng)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.attacks.registry --list``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.attacks.registry",
        description="Inspect the attack-strategy registry.")
    parser.add_argument("--list", action="store_true",
                        help="list registered strategies and exit")
    options = parser.parse_args(argv)
    if options.list:
        width = max(len(name) for name in ATTACK_STRATEGIES)
        default = default_strategy()
        for name in sorted(ATTACK_STRATEGIES):
            entry = ATTACK_STRATEGIES[name]
            marker = "*" if name == default else " "
            print(f"{marker} {name:<{width}}  {entry.composition()}")
            print(f"  {'':<{width}}  {entry.description}")
        print(f"\n(* = default; override with {ATTACK_ENV})")
        return 0
    parser.print_help()
    return 0


__all__ = [
    "ATTACK_ENV",
    "ATTACK_STRATEGIES",
    "DEFAULT_STRATEGY",
    "StrategyEntry",
    "build_attack",
    "default_strategy",
    "main",
    "register_strategy",
    "resolve_strategy",
]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
