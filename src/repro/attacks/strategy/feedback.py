"""Feedback models: *how* black-box feedback drives the search.

:class:`SimbaFeedback`, :class:`QairFeedback` and :class:`NesFeedback`
delegate to the shared search primitives in :mod:`repro.attacks.search`,
so the paper's compositions match their monolithic references in
:mod:`repro.qa.pairs` bit-for-bit.  SimBA and QAIR share the one ±ε
loop, :func:`~repro.attacks.search.simba_search`: SimBA with a fixed
step over pixels or basis coefficients, QAIR (the query-efficient
adversary) with its top-``m`` list-overlap objective and an
:class:`~repro.attacks.search.AdaptiveStep` with early exit.  Every
querying model scores lists with the one
:class:`~repro.attacks.objective.RetrievalObjective`.
:class:`TransferFeedback` closes the square — a feedback model that
never queries (TIMI), so pure transfer attacks compose through the same
driver.

Every model's :meth:`optimize` honours ``ctx.max_queries`` by trimming
its iteration count with a conservative per-iteration cost bound, which
is how :class:`~repro.attacks.strategy.composed.ComposedAttack`
guarantees a run *finishes under* ``AttackConfig.budget``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attacks.objective import RetrievalObjective
from repro.attacks.report import AttackReport
from repro.attacks.search import AdaptiveStep, nes_search, simba_search
from repro.attacks.strategy.protocols import AttackContext, BasisState
from repro.video.types import Video


def _trim_iterations(iterations: int, max_queries: int | None,
                     cost_per_iteration: int, upfront: int = 1) -> int:
    """Largest iteration count whose worst-case cost fits the budget."""
    iterations = int(iterations)
    if max_queries is None:
        return iterations
    affordable = (int(max_queries) - upfront) // max(cost_per_iteration, 1)
    return max(0, min(iterations, affordable))


# ---------------------------------------------------------------------- #
# SimBA (pixel and coefficient spaces)
# ---------------------------------------------------------------------- #
class SimbaFeedback:
    """SimBA ±ε coordinate descent on the objective ``T``.

    :func:`simba_search` over the basis's space: pixels (the DUO query
    stage with ``metric_prefix="attack.duo.query"``) or, in a
    ``"coeff"`` basis, the basis coefficients under the
    ``attack.search.coeff`` names and ``coeff`` checkpoint tag.
    ``epsilon_scale`` scales the basis's default step: τ for pixels,
    ``epsilon_hint`` for coefficients.  ``tie_rule="move"`` follows
    Eq. 3 (accept a step that does not *increase* ``T``); ``"stay"``
    follows Algorithm 2 literally (strict decreases only).  Without a
    target video the objective is the untargeted ``T_unt``.
    """

    name = "simba"

    def __init__(self, tie_rule: str = "move", block_size: int | None = None,
                 epsilon_scale: float | None = None,
                 metric_prefix: str = "attack.search.simba",
                 checkpoint_algo: str = "simba") -> None:
        if tie_rule not in ("move", "stay"):
            raise ValueError("tie_rule must be 'move' or 'stay'")
        self.tie_rule = tie_rule
        self.block_size = block_size
        self.epsilon_scale = epsilon_scale
        self.metric_prefix = metric_prefix
        self.checkpoint_algo = checkpoint_algo

    def build_objective(self, service, original: Video,
                        target: Video | None, config):
        return RetrievalObjective(service, original, target, eta=config.eta)

    def optimize(self, current: Video, objective, state: BasisState,
                 ctx: AttackContext) -> AttackReport:
        config = ctx.config
        tau = config.tau_unit()
        # Worst case 2 queries per iteration (+1 fresh baseline).
        iterations = _trim_iterations(config.iterations, ctx.max_queries, 2)
        epsilon = float(state.epsilon_hint) if state.epsilon_hint else tau
        if self.epsilon_scale is not None:
            epsilon = float(self.epsilon_scale) * epsilon
        if state.space == "coeff":
            if state.decode is None or state.dim <= 0:
                raise ValueError("coefficient search needs a decodable "
                                 "basis state")
            space = dict(support=np.ones(state.dim, dtype=bool),
                         decode=state.decode,
                         metric_prefix="attack.search.coeff",
                         checkpoint_algo="coeff")
        else:
            space = dict(support=state.support, initial=state.initial,
                         project_initial=state.project_initial,
                         metric_prefix=self.metric_prefix,
                         checkpoint_algo=self.checkpoint_algo)
        return simba_search(
            current, objective, tau=tau, iterations=iterations,
            epsilon=epsilon, rng=ctx.rng, tie_rule=self.tie_rule,
            block_size=self.block_size, checkpoint_path=ctx.checkpoint_path, **space)


# ---------------------------------------------------------------------- #
# NES
# ---------------------------------------------------------------------- #
class NesFeedback:
    """NES antithetic gradient estimation (the HEU-Nes optimizer)."""

    name = "nes"

    def __init__(self, samples: int = 4, sigma: float = 0.05,
                 lr: float | None = None) -> None:
        self.samples = int(samples)
        self.sigma = float(sigma)
        self.lr = lr

    def build_objective(self, service, original: Video,
                        target: Video | None, config):
        return RetrievalObjective(service, original, target, eta=config.eta)

    def optimize(self, current: Video, objective, state: BasisState,
                 ctx: AttackContext) -> AttackReport:
        if state.space != "pixel":
            raise ValueError("NES feedback needs a pixel basis")
        config = ctx.config
        # 2·samples probes + 1 step evaluation per iteration.
        iterations = _trim_iterations(config.iterations, ctx.max_queries,
                                      2 * self.samples + 1)
        return nes_search(
            current, objective, state.support, tau=config.tau_unit(),
            iterations=iterations, samples=self.samples, sigma=self.sigma,
            lr=self.lr, rng=ctx.rng, initial=state.initial,
            checkpoint_path=ctx.checkpoint_path)


# ---------------------------------------------------------------------- #
# QAIR-style relevance feedback
# ---------------------------------------------------------------------- #
def rank_weighted_overlap(lists: Sequence[Sequence[str]],
                          reference: Sequence[str]) -> list[float]:
    """QAIR's signal: reciprocal-rank-weighted top-``m`` list overlap.

    QAIR attacks image retrieval with only the *returned list* as
    feedback — no similarity scores.  Each list scores the share of the
    ``reference`` list it contains, with ``1 / log2(rank + 2)`` weights
    on the reference ranks (high ranks dominate, like NDCG's discount).
    As the ``similarity`` of a
    :class:`~repro.attacks.objective.RetrievalObjective` a candidate
    scores how much of the original's list it still *keeps* minus how
    much of the target's list it has *gained*; fully flipped lists reach
    ``η − 1``, so ``stop_at = η − 1`` is the natural early-exit
    threshold.
    """
    if not reference:
        return [0.0 for _ in lists]
    positions = {video_id: rank for rank, video_id in enumerate(reference)}
    weights = 1.0 / np.log2(np.arange(len(reference)) + 2.0)
    total = weights.sum()
    return [float(sum(weights[positions[video_id]] for video_id in ids
                      if video_id in positions) / total) for ids in lists]


class QairFeedback:
    """Query-efficient relevance-feedback search (QAIR-style)."""

    name = "qair"

    def __init__(self, step_init: float | None = None, grow: float = 1.5,
                 shrink: float = 0.5, patience: int = 2,
                 early_exit: bool = True) -> None:
        self.step_init = step_init
        self.grow = float(grow)
        self.shrink = float(shrink)
        self.patience = int(patience)
        self.early_exit = bool(early_exit)

    def build_objective(self, service, original: Video,
                        target: Video | None, config):
        return RetrievalObjective(service, original, target, eta=config.eta,
                                  similarity=rank_weighted_overlap)

    def optimize(self, current: Video, objective, state: BasisState,
                 ctx: AttackContext) -> AttackReport:
        if state.space != "pixel":
            raise ValueError("QAIR feedback needs a pixel basis")
        config = ctx.config
        iterations = _trim_iterations(config.iterations, ctx.max_queries, 2)
        # Fully flipped lists reach η − 1 (keep 0, gain 1).
        stop_at = (config.eta - 1.0) if self.early_exit else None
        return simba_search(
            current, objective, state.support, tau=config.tau_unit(),
            iterations=iterations, epsilon=self.step_init, rng=ctx.rng,
            initial=state.initial, checkpoint_path=ctx.checkpoint_path,
            metric_prefix="attack.search.qair", checkpoint_algo="qair",
            step=AdaptiveStep(self.grow, self.shrink, self.patience,
                              stop_at))


# ---------------------------------------------------------------------- #
# Pure transfer (no queries)
# ---------------------------------------------------------------------- #
class TransferFeedback:
    """TIMI surrogate transfer as a feedback model that never queries."""

    name = "transfer"

    def __init__(self, momentum: float = 1.0, kernel_size: int = 5) -> None:
        if kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")
        self.momentum = float(momentum)
        self.kernel_size = int(kernel_size)

    def build_objective(self, service, original: Video,
                        target: Video | None, config):
        return None  # transfer-only: zero black-box queries

    def optimize(self, current: Video, objective, state: BasisState,
                 ctx: AttackContext) -> AttackReport:
        from repro.attacks.timi import timi_transfer
        if ctx.surrogate is None:
            raise ValueError("the transfer feedback model needs a surrogate "
                             "model; pass surrogate=... to build_attack()")
        if ctx.target is None:
            raise ValueError("TIMI transfer is targeted; a target video is "
                             "required")
        config = ctx.config
        return timi_transfer(
            ctx.surrogate, current, ctx.target, tau=config.tau_unit(),
            iterations=config.iterations, momentum=self.momentum,
            kernel_size=self.kernel_size)


__all__ = [
    "NesFeedback",
    "QairFeedback",
    "SimbaFeedback",
    "TransferFeedback",
    "rank_weighted_overlap",
]
