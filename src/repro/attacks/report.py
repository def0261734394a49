"""The single result type every attack entry point returns.

:class:`AttackReport` is what :class:`~repro.attacks.strategy.ComposedAttack`
and every search primitive (:func:`~repro.attacks.search.simba_search`,
:func:`~repro.attacks.search.nes_search`, ...) return.  Its fields are
``adversarial`` / ``perturbation`` / ``queries`` / ``trace`` /
``metadata``.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.perturbation import PerturbationStats, perturbation_summary
from repro.video.types import Video


class AttackReport:
    """Everything an attack run (or one search stage) produces.

    Attributes
    ----------
    adversarial:
        The synthesized ``v_adv``.
    perturbation:
        ``φ = v_adv − v`` (same shape as the video pixels).
    queries:
        Black-box queries consumed (0 for pure transfer attacks).
    trace:
        Objective value per evaluated candidate — the series plotted in
        the paper's Figure 5.
    metadata:
        Free-form attack/strategy annotations.
    """

    __slots__ = ("adversarial", "perturbation", "queries", "trace",
                 "metadata")

    def __init__(self, adversarial: Video = None,
                 perturbation: np.ndarray | None = None,
                 queries: int = 0, trace: list[float] | None = None,
                 metadata: dict | None = None) -> None:
        self.adversarial = adversarial
        self.perturbation = perturbation
        self.queries = int(queries)
        self.trace = list(trace) if trace is not None else []
        self.metadata = dict(metadata) if metadata is not None else {}

    @property
    def stats(self) -> PerturbationStats:
        """Stealthiness metrics (Spa, PScore, frames, ℓ∞) of this AE."""
        return perturbation_summary(self.perturbation)

    def __repr__(self) -> str:
        return (f"AttackReport(queries={self.queries}, "
                f"trace_len={len(self.trace)}, "
                f"metadata={self.metadata!r})")


__all__ = ["AttackReport"]
