"""Frozen configuration for composed attacks.

Mirrors the :class:`~repro.retrieval.config.ServiceConfig` redesign: one
immutable :class:`AttackConfig` is the single constructor argument for
:class:`~repro.attacks.strategy.ComposedAttack` and for
:func:`repro.attacks.registry.build_attack`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping


@dataclass(frozen=True)
class AttackConfig:
    """All knobs of one composed attack run.

    Parameters
    ----------
    strategy:
        Registry name of the composition (see
        ``python -m repro.attacks.registry --list``).
    k / n:
        Pixel and frame sparsity budgets (paper Eq. 1).
    tau:
        ℓ∞ budget in 8-bit units (the paper's convention; components
        convert to [0, 1] pixel units internally via :meth:`tau_unit`).
    eta:
        Margin constant of the retrieval objective ``T`` (Eq. 2).
    iterations:
        Feedback-model iteration cap per round (SimBA/NES/QAIR steps).
    rounds:
        Outer sampler episodes (DUO's ``iter_num_H``, the RL sampler's
        training episodes).  ``None`` uses the sampler's own default.
    budget:
        Hard cap on black-box queries.  The driver sizes each round so
        the attack *finishes under* the budget (conservative per-step
        cost bounds), mirroring a per-tenant admission budget.
        ``None`` disables the cap.
    seed:
        Attack rng seed (ignored when an explicit generator is passed to
        the builder).
    checkpoint_path:
        Default checkpoint location for
        :class:`~repro.resilience.checkpoint.CheckpointSession`; a path
        passed to ``run()`` wins.
    sampler / basis / feedback:
        Component-specific keyword overrides, forwarded verbatim to the
        registered component factories (e.g.
        ``feedback={"samples": 4}`` for NES, ``basis={"rank": 2}`` for
        the low-rank basis, ``sampler={"constraint": "l2"}`` for DUO's
        transfer stage).
    """

    strategy: str = "duo"
    k: int = 64
    n: int = 4
    tau: float = 30.0
    eta: float = 1.0
    iterations: int = 100
    rounds: int | None = None
    budget: int | None = None
    seed: int | None = None
    checkpoint_path: str | None = None
    sampler: Mapping[str, object] = field(default_factory=dict)
    basis: Mapping[str, object] = field(default_factory=dict)
    feedback: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive (8-bit units)")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be >= 1 (or None)")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0 (or None)")

    def tau_unit(self) -> float:
        """The ℓ∞ budget in [0, 1] pixel units (``tau / 255``)."""
        return float(self.tau) / 255.0

    def with_(self, **changes) -> "AttackConfig":
        """Return a copy with fields replaced (ServiceConfig idiom)."""
        return replace(self, **changes)


__all__ = ["AttackConfig"]
