"""The three component protocols every composed attack is built from.

DUO is one point in a design space with three independent axes:

* **which** coordinates to perturb — :class:`SupportSampler` (random,
  motion-saliency, DUO's transfer-derived frame-pixel search, an RL
  agent that *learns* frame selection from per-episode rank shifts);
* **what basis** the perturbation lives in — :class:`PerturbationBasis`
  (dense pixels, sparse pixel support, TenAd-style low-rank factors over
  the ``(T, H, W)`` cube);
* **how** retrieval feedback drives the search — :class:`FeedbackModel`
  (SimBA ±ε probes, NES gradient estimates, QAIR-style top-k
  relevance feedback, pure surrogate transfer).

All three are ``runtime_checkable`` protocols:
:class:`~repro.attacks.strategy.composed.ComposedAttack` validates its
components with ``isinstance`` at construction, so a mis-wired
composition fails fast with a clear error instead of deep inside a
search loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.attacks.report import AttackReport
from repro.video.types import Video


@dataclass
class SupportPlan:
    """One round's answer to *which coordinates may move*.

    ``support`` is a boolean mask over the video pixels (``None`` means
    dense: every coordinate).  ``initial`` optionally seeds the search
    with a perturbation (DUO's transfer priors).  ``project_initial``
    is DUO's query-stage contract: the initial perturbation is *not*
    ℓ∞-projected when the priors were built under an ℓ2 constraint.
    """

    support: np.ndarray | None
    initial: np.ndarray | None = None
    project_initial: bool = True
    metadata: dict = field(default_factory=dict)

    def is_empty(self) -> bool:
        """True when a mask is present but selects nothing."""
        return self.support is not None and not bool(np.any(self.support))


@dataclass
class BasisState:
    """A prepared perturbation basis for one search round.

    ``space`` is ``"pixel"`` (the search mutates pixel coordinates of
    ``support`` directly) or ``"coeff"`` (the search mutates a ``dim``-
    dimensional coefficient vector and ``decode`` maps it to a pixel
    perturbation; projection to the ℓ∞ ball and the valid pixel range
    happens *after* decoding).
    """

    space: str
    support: np.ndarray | None = None
    initial: np.ndarray | None = None
    project_initial: bool = True
    dim: int = 0
    decode: Callable[[np.ndarray], np.ndarray] | None = None
    epsilon_hint: float | None = None
    metadata: dict = field(default_factory=dict)


@runtime_checkable
class SupportSampler(Protocol):
    """Chooses the frames × pixels an attack round may touch."""

    name: str
    #: Outer rounds the sampler wants when ``AttackConfig.rounds`` is
    #: ``None`` (1 for static samplers, ``iter_num_H`` for DUO's
    #: transfer loop, the episode count for the RL agent).
    default_rounds: int

    def sample(self, current: Video, target: Video | None,
               ctx) -> SupportPlan:
        """Plan one round's support, starting from ``current``."""
        ...

    def update(self, plan: SupportPlan, report: AttackReport, ctx) -> None:
        """Learn from the finished round (no-op for static samplers)."""
        ...


@runtime_checkable
class PerturbationBasis(Protocol):
    """Maps a support plan to the space the feedback model searches."""

    name: str

    def prepare(self, current: Video, plan: SupportPlan,
                ctx) -> BasisState:
        ...


@runtime_checkable
class FeedbackModel(Protocol):
    """Drives the search from black-box retrieval feedback."""

    name: str

    def build_objective(self, service, original: Video,
                        target: Video | None, config):
        """Construct the round-shared objective (``None`` ⇒ no queries)."""
        ...

    def optimize(self, current: Video, objective, state: BasisState,
                 ctx) -> AttackReport:
        """Run one round of search from ``current`` over ``state``."""
        ...


@dataclass
class AttackContext:
    """Everything the driver threads through the components.

    ``rng`` is the single shared generator — samplers consume it before
    the feedback model each round, so compositions reproduce their
    monolithic references in :mod:`repro.qa.pairs` bit-for-bit.
    """

    config: object
    rng: np.random.Generator
    service: object = None
    surrogate: object = None
    target: Video | None = None
    round: int = 0
    rounds: int = 1
    checkpoint_path: str | None = None
    #: Queries the current round may still spend (``None`` = unlimited);
    #: feedback models trim their iteration counts to stay under it.
    max_queries: int | None = None


__all__ = [
    "AttackContext",
    "BasisState",
    "FeedbackModel",
    "PerturbationBasis",
    "SupportPlan",
    "SupportSampler",
]
