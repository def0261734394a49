"""Feedback models: *how* black-box feedback drives the search.

:class:`SimbaFeedback` and :class:`NesFeedback` delegate to the shared
search primitives (:func:`~repro.attacks.search.simba_search` /
:func:`~repro.attacks.search.nes_search`), so each composition matches
its monolithic reference in :mod:`repro.qa.pairs` bit-for-bit.
:class:`QairFeedback` is the query-efficient adversary: a QAIR-style
relevance objective built from top-``m`` list overlap plus an
adaptive-step search with early exit.
:class:`TransferFeedback` closes the square — a feedback model that
never queries (TIMI), so pure transfer attacks compose through the same
driver.

Every model's :meth:`optimize` honours ``ctx.max_queries`` by trimming
its iteration count with a conservative per-iteration cost bound, which
is how :class:`~repro.attacks.strategy.composed.ComposedAttack`
guarantees a run *finishes under* ``AttackConfig.budget``.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import clip_video_range, project_linf
from repro.attacks.objective import RetrievalObjective, \
    UntargetedRetrievalObjective
from repro.attacks.report import AttackReport
from repro.attacks.search import default_block_size, nes_search, simba_search
from repro.attacks.strategy.protocols import AttackContext, BasisState
from repro.errors import RetrievalUnavailable
from repro.obs import counter, gauge, span
from repro.resilience.checkpoint import CheckpointSession
from repro.utils.seeding import seeded_rng
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

    In the ``"pixel"`` basis this is :func:`simba_search` (the DUO query
    stage with ``metric_prefix="attack.duo.query"``); in a ``"coeff"``
    basis the same greedy rule runs over basis coefficients via
    :func:`coefficient_search`.  ``tie_rule="move"`` follows Eq. 3
    (accept a step that does not *increase* ``T``); ``"stay"`` follows
    Algorithm 2 literally (strict decreases only).  Without a target
    video the objective is the untargeted ``T_unt``.
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
        if target is None:
            return UntargetedRetrievalObjective(service, original,
                                                eta=config.eta)
        return RetrievalObjective(service, original, target, eta=config.eta)

    def optimize(self, current: Video, objective, state: BasisState,
                 ctx: AttackContext) -> AttackReport:
        config = ctx.config
        tau = config.tau_unit()
        # Worst case 2 queries per iteration (+1 fresh baseline).
        iterations = _trim_iterations(config.iterations, ctx.max_queries, 2)
        epsilon = None if self.epsilon_scale is None else \
            float(self.epsilon_scale) * tau
        if state.space == "coeff":
            return coefficient_search(
                current, objective, state, tau=tau, iterations=iterations,
                rng=ctx.rng, tie_rule=self.tie_rule,
                block_size=self.block_size,
                checkpoint_path=ctx.checkpoint_path)
        return simba_search(
            current, objective, state.support, tau=tau,
            iterations=iterations, epsilon=epsilon, rng=ctx.rng,
            initial=state.initial, tie_rule=self.tie_rule,
            block_size=self.block_size, batched=config.batched,
            checkpoint_path=ctx.checkpoint_path,
            metric_prefix=self.metric_prefix,
            checkpoint_algo=self.checkpoint_algo,
            project_initial=state.project_initial)


def coefficient_search(original: Video, objective, state: BasisState,
                       tau: float, iterations: int, rng=None,
                       tie_rule: str = "move", block_size: int | None = None,
                       checkpoint_path=None, *,
                       metric_prefix: str = "attack.search.coeff",
                       checkpoint_algo: str = "coeff") -> AttackReport:
    """SimBA's greedy ±ε rule over a basis coefficient vector.

    The loop mutates a ``state.dim``-dimensional coefficient vector;
    ``state.decode`` maps it to a pixel perturbation which is then
    ℓ∞-projected and range-clipped (so the decoded AE always satisfies
    the budget no matter how the coefficients move).  Candidates whose
    decoded perturbation equals the incumbent cost no query, mirroring
    :func:`~repro.attacks.search.simba_search`'s projection-undid-it
    skip.
    """
    if state.decode is None or state.dim <= 0:
        raise ValueError("coefficient search needs a decodable basis state")
    rng = seeded_rng(rng)
    base = original.pixels
    decode = state.decode
    epsilon = float(state.epsilon_hint) if state.epsilon_hint else tau

    def decode_projected(coefficients: np.ndarray) -> np.ndarray:
        return clip_video_range(base, project_linf(decode(coefficients), tau))

    coefficients = np.zeros(state.dim, dtype=np.float64)
    perturbation = decode_projected(coefficients)
    indices = np.arange(state.dim)
    block = default_block_size(state.dim) if block_size is None else \
        max(1, int(block_size))

    session = CheckpointSession(checkpoint_path, checkpoint_algo, objective,
                                rng)
    resumed = session.resume()
    if resumed is None:
        current = original.perturbed(perturbation)
        best = objective.value(current)
        trace = [best]
        order = rng.permutation(indices)
        cursor = 0
        start_iteration = 0
    else:
        coefficients = resumed["coefficients"]
        perturbation = decode_projected(coefficients)
        best = resumed["best"]
        trace = resumed["trace"]
        order = resumed["order"]
        cursor = resumed["cursor"]
        block = int(resumed.get("block", block))
        start_iteration = resumed["iteration"]
        current = original.perturbed(perturbation)

    with span(metric_prefix, dim=int(state.dim), block=block):
        for iteration in range(start_iteration, int(iterations)):
            session.mark(iteration, coefficients=coefficients, best=best,
                         trace=trace, order=order, cursor=cursor, block=block)
            try:
                with span(f"{metric_prefix}.iter"):
                    if cursor + block > order.size:
                        order = rng.permutation(indices)
                        cursor = 0
                    chosen = order[cursor : cursor + block]
                    cursor += block
                    signs = rng.choice((-1.0, 1.0), size=chosen.size)
                    for flip in (+1.0, -1.0):
                        candidate = coefficients.copy()
                        candidate[chosen] += flip * signs * epsilon
                        decoded = decode_projected(candidate)
                        if np.array_equal(decoded, perturbation):
                            continue  # projection undid the step: no query
                        adversarial = original.perturbed(decoded)
                        value = objective.value(adversarial)
                        trace.append(value)
                        counter(f"{metric_prefix}.evaluations").inc()
                        if value < best or \
                                (tie_rule == "move" and value <= best):
                            counter(f"{metric_prefix}.accepted").inc()
                            best = value
                            coefficients = candidate
                            perturbation = decoded
                            current = adversarial
                            break
            except RetrievalUnavailable:
                session.persist()
                raise
        gauge(f"{metric_prefix}.objective").set(best)
    session.complete()
    return AttackReport(adversarial=current, perturbation=perturbation,
                        queries=len(trace), trace=trace,
                        metadata={"coefficients": coefficients})


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
            batched=config.batched, checkpoint_path=ctx.checkpoint_path)


# ---------------------------------------------------------------------- #
# QAIR-style relevance feedback
# ---------------------------------------------------------------------- #
class RelevanceFeedbackObjective:
    """QAIR's signal: reciprocal-rank-weighted top-``m`` list overlap.

    QAIR attacks image retrieval with only the *returned list* as
    feedback — no similarity scores.  This objective mirrors that:
    each query scores how much of the original's list the candidate
    still *keeps* minus how much of the target's list it has *gained*,
    with ``1 / log2(rank + 2)`` position weights (high ranks dominate,
    like NDCG's discount).  Fully flipped lists reach ``η − 1``, so
    ``stop_at = η − 1`` is the natural early-exit threshold.

    Duck-type compatible with
    :class:`~repro.attacks.objective.RetrievalObjective` where the
    checkpoint layer is concerned (``service`` / ``queries`` /
    ``trace``).
    """

    def __init__(self, service, original: Video, target: Video | None,
                 eta: float = 1.0) -> None:
        self.service = service
        self.eta = float(eta)
        self.original_ids = list(service.query(original).ids)
        self.target_ids = [] if target is None else \
            list(service.query(target).ids)
        self.queries = 2 if target is not None else 1
        self.trace: list[float] = []

    def _overlap(self, ids: list[str], reference: list[str]) -> float:
        if not reference:
            return 0.0
        positions = {video_id: rank for rank, video_id
                     in enumerate(reference)}
        weights = 1.0 / np.log2(np.arange(len(reference)) + 2.0)
        gained = sum(weights[positions[video_id]] for video_id in ids
                     if video_id in positions)
        return float(gained / weights.sum())

    def value(self, candidate: Video) -> float:
        ids = list(self.service.query(candidate).ids)
        self.queries += 1
        value = (self._overlap(ids, self.original_ids)
                 - self._overlap(ids, self.target_ids) + self.eta)
        self.trace.append(value)
        return value

    @property
    def speculation_safe(self) -> bool:
        return False  # sequential on purpose: the adaptive step is stateful


def qair_search(original: Video, objective, support: np.ndarray, tau: float,
                iterations: int, rng=None,
                initial: np.ndarray | None = None,
                step_init: float | None = None, grow: float = 1.5,
                shrink: float = 0.5, patience: int = 2,
                stop_at: float | None = None, checkpoint_path=None, *,
                metric_prefix: str = "attack.search.qair",
                checkpoint_algo: str = "qair") -> AttackReport:
    """Adaptive-step ±ε search with early exit (QAIR's query economy).

    Same direction stream as :func:`~repro.attacks.search.simba_search`,
    but the step size adapts: accepted moves grow ``ε`` (capped at τ),
    ``patience`` consecutive fully-rejected iterations shrink it (floored
    at τ/16).  When ``stop_at`` is given the loop exits as soon as the
    best objective value reaches it — the attack stops paying for
    queries the moment the retrieval list has flipped.
    """
    rng = seeded_rng(rng)
    base = original.pixels
    epsilon_min = tau / 16.0
    epsilon = tau if step_init is None else float(step_init)
    perturbation = np.zeros_like(base) if initial is None else initial.copy()
    perturbation = clip_video_range(base, project_linf(perturbation, tau))

    coords = np.flatnonzero(np.asarray(support).reshape(-1))
    if coords.size == 0:
        current = original.perturbed(perturbation)
        trace = [objective.value(current)]
        return AttackReport(adversarial=current, perturbation=perturbation,
                            queries=len(trace), trace=trace)
    block = default_block_size(coords.size)

    session = CheckpointSession(checkpoint_path, checkpoint_algo, objective,
                                rng)
    resumed = session.resume()
    if resumed is None:
        current = original.perturbed(perturbation)
        best = objective.value(current)
        trace = [best]
        order = rng.permutation(coords)
        cursor = 0
        misses = 0
        start_iteration = 0
    else:
        perturbation = resumed["perturbation"]
        best = resumed["best"]
        trace = resumed["trace"]
        order = resumed["order"]
        cursor = resumed["cursor"]
        epsilon = resumed["epsilon"]
        misses = resumed["misses"]
        block = int(resumed.get("block", block))
        start_iteration = resumed["iteration"]
        current = original.perturbed(perturbation)

    with span(metric_prefix, support=int(coords.size), block=block):
        for iteration in range(start_iteration, int(iterations)):
            if stop_at is not None and best <= stop_at:
                counter(f"{metric_prefix}.early_exits").inc()
                break
            session.mark(iteration, perturbation=perturbation, best=best,
                         trace=trace, order=order, cursor=cursor,
                         epsilon=epsilon, misses=misses, block=block)
            try:
                with span(f"{metric_prefix}.iter"):
                    if cursor + block > order.size:
                        order = rng.permutation(coords)
                        cursor = 0
                    chosen = order[cursor : cursor + block]
                    cursor += block
                    signs = rng.choice((-1.0, 1.0), size=chosen.size)
                    accepted = False
                    for flip in (+1.0, -1.0):
                        candidate = perturbation.copy()
                        candidate.reshape(-1)[chosen] += flip * signs * epsilon
                        candidate = clip_video_range(
                            base, project_linf(candidate, tau))
                        if np.array_equal(candidate, perturbation):
                            continue  # projection undid the step: no query
                        adversarial = original.perturbed(candidate)
                        value = objective.value(adversarial)
                        trace.append(value)
                        counter(f"{metric_prefix}.evaluations").inc()
                        if value <= best:
                            counter(f"{metric_prefix}.accepted").inc()
                            best = value
                            perturbation = candidate
                            current = adversarial
                            accepted = True
                            break
                    if accepted:
                        epsilon = min(tau, epsilon * grow)
                        misses = 0
                    else:
                        misses += 1
                        if misses >= patience:
                            epsilon = max(epsilon_min, epsilon * shrink)
                            misses = 0
            except RetrievalUnavailable:
                session.persist()
                raise
        gauge(f"{metric_prefix}.objective").set(best)
        gauge(f"{metric_prefix}.step").set(epsilon)
    session.complete()
    return AttackReport(adversarial=current, perturbation=perturbation,
                        queries=len(trace), trace=trace)


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
        return RelevanceFeedbackObjective(service, original, target,
                                          eta=config.eta)

    def optimize(self, current: Video, objective, state: BasisState,
                 ctx: AttackContext) -> AttackReport:
        if state.space != "pixel":
            raise ValueError("QAIR feedback needs a pixel basis")
        config = ctx.config
        iterations = _trim_iterations(config.iterations, ctx.max_queries, 2)
        # Fully flipped lists reach η − 1 (keep 0, gain 1).
        stop_at = (config.eta - 1.0) if self.early_exit else None
        return qair_search(
            current, objective, state.support, tau=config.tau_unit(),
            iterations=iterations, rng=ctx.rng, initial=state.initial,
            step_init=self.step_init, grow=self.grow, shrink=self.shrink,
            patience=self.patience, stop_at=stop_at,
            checkpoint_path=ctx.checkpoint_path)


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
    "RelevanceFeedbackObjective",
    "SimbaFeedback",
    "TransferFeedback",
    "coefficient_search",
    "qair_search",
]
