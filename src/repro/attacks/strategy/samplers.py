"""Support samplers: *which* frames × pixels an attack round may touch.

Static samplers (:class:`RandomSampler`, :class:`SaliencySampler`,
:class:`DenseSampler`) apply the baselines' selection rules, consuming
rng from the shared context.  :class:`TransferSampler` wraps DUO's
frame-pixel search
(:class:`~repro.attacks.duo.sparse_transfer.SparseTransfer`) and re-plans
every round, which is precisely the paper's ``iter_num_H`` loop.
:class:`RLFrameSampler` is the new adversary: an EXP3 bandit that
*learns* which frames move the retrieval list, using the round's
objective drop as reward.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import clip_video_range
from repro.attacks.duo.sparse_transfer import SparseTransfer
from repro.attacks.heu import saliency_support
from repro.attacks.report import AttackReport
from repro.attacks.strategy.protocols import AttackContext, SupportPlan
from repro.attacks.vanilla import random_support
from repro.obs import gauge, span
from repro.video.types import Video


class RandomSampler:
    """Vanilla's selection: ``n`` random frames, ``k`` random values."""

    name = "random"
    default_rounds = 1

    def sample(self, current: Video, target: Video | None,
               ctx: AttackContext) -> SupportPlan:
        config = ctx.config
        support = random_support(current.pixels.shape, config.k, config.n,
                                 rng=ctx.rng)
        return SupportPlan(support=support)

    def update(self, plan: SupportPlan, report: AttackReport,
               ctx: AttackContext) -> None:
        pass


class SaliencySampler:
    """HEU's selection: top-``n`` motion frames, salient or random pixels.

    ``random_pixels=True`` is the HEU-Sim ablation (heuristic frames,
    Vanilla pixels); it is the only variant that consumes rng.
    """

    name = "saliency"
    default_rounds = 1

    def __init__(self, random_pixels: bool = False) -> None:
        self.random_pixels = bool(random_pixels)

    def sample(self, current: Video, target: Video | None,
               ctx: AttackContext) -> SupportPlan:
        config = ctx.config
        with span("attack.heu.saliency"):
            support = saliency_support(current, config.k, config.n,
                                       random_pixels=self.random_pixels,
                                       rng=ctx.rng)
        return SupportPlan(support=support)

    def update(self, plan: SupportPlan, report: AttackReport,
               ctx: AttackContext) -> None:
        pass


class DenseSampler:
    """No sparsity: every frame and pixel may move (TIMI, low-rank)."""

    name = "dense"
    default_rounds = 1

    def sample(self, current: Video, target: Video | None,
               ctx: AttackContext) -> SupportPlan:
        return SupportPlan(support=None)

    def update(self, plan: SupportPlan, report: AttackReport,
               ctx: AttackContext) -> None:
        pass


class TransferSampler:
    """DUO's frame-pixel search: surrogate transfer plans each round.

    Every :meth:`sample` call runs
    :class:`~repro.attacks.duo.sparse_transfer.SparseTransfer` from the
    *current* adversarial point — the paper's ``iter_num_H`` loop.  The
    support is the nonzero mask of θ and the search is seeded with the
    clipped priors (not ℓ∞-projected: under the ℓ2 constraint θ may
    legitimately exceed τ per coordinate).  Without a target video the
    transfer stage runs untargeted (it pushes the surrogate feature away
    from the current video, from a random start drawn from ``ctx.rng``).
    ``transfer_kwargs`` (``frame_steps``, ``lr``, ...) are forwarded to
    :class:`SparseTransfer`.
    """

    name = "transfer"
    default_rounds = 2  # the paper's iter_num_H

    def __init__(self, lam: float = float(np.exp(-5.0)),
                 constraint: str = "linf", outer_iters: int = 3,
                 theta_steps: int = 25, **transfer_kwargs) -> None:
        self.lam = float(lam)
        self.constraint = constraint
        self.outer_iters = int(outer_iters)
        self.theta_steps = int(theta_steps)
        self.transfer_kwargs = dict(transfer_kwargs)

    def sample(self, current: Video, target: Video | None,
               ctx: AttackContext) -> SupportPlan:
        if ctx.surrogate is None:
            raise ValueError(
                "the transfer sampler needs a surrogate model; pass "
                "surrogate=... to build_attack()")
        config = ctx.config
        transfer = SparseTransfer(
            ctx.surrogate, k=config.k, n=config.n, tau=config.tau,
            lam=self.lam, constraint=self.constraint,
            outer_iters=self.outer_iters, theta_steps=self.theta_steps,
            targeted=ctx.target is not None, rng=ctx.rng,
            **self.transfer_kwargs)
        priors = transfer.run(current, target, init=None)
        initial = clip_video_range(current.pixels, priors.perturbation())
        return SupportPlan(support=priors.support(), initial=initial,
                           project_initial=False,
                           metadata={"priors": priors})

    def update(self, plan: SupportPlan, report: AttackReport,
               ctx: AttackContext) -> None:
        pass


class PriorSampler:
    """A fixed set of transfer priors (DUO's query stage in isolation).

    Wraps a pre-computed
    :class:`~repro.attacks.duo.sparse_transfer.TransferPriors` so the
    query stage composes without a surrogate in the loop (the
    ``"duo-query"`` registry entry).
    """

    name = "priors"
    default_rounds = 1

    def __init__(self, priors) -> None:
        self.priors = priors

    def sample(self, current: Video, target: Video | None,
               ctx: AttackContext) -> SupportPlan:
        initial = clip_video_range(current.pixels,
                                   self.priors.perturbation())
        return SupportPlan(support=self.priors.support(), initial=initial,
                           project_initial=False,
                           metadata={"priors": self.priors})

    def update(self, plan: SupportPlan, report: AttackReport,
               ctx: AttackContext) -> None:
        pass


class RLFrameSampler:
    """EXP3 bandit that learns *which frames* shift the retrieval list.

    Each round (= bandit episode) the sampler draws ``n`` frames without
    replacement from an exploration-mixed softmax over per-frame weights,
    spreads the ``k``-pixel budget uniformly inside them (Vanilla's
    rule), and after the round's search updates the drawn frames'
    weights with the importance-weighted EXP3 rule.  The reward is the
    round's *relative objective drop* — a direct proxy for how far the
    round pushed the target up the retrieval list (rank shift), which is
    the only signal a black-box attacker observes.

    Frames that keep producing rank movement accumulate weight, so later
    episodes concentrate the sparse budget where the victim model is
    actually sensitive — without a surrogate and without saliency
    heuristics.
    """

    name = "rl-frames"
    default_rounds = 4

    def __init__(self, exploration: float = 0.25,
                 learning_rate: float = 1.0) -> None:
        if not 0.0 < exploration <= 1.0:
            raise ValueError("exploration must be in (0, 1]")
        self.exploration = float(exploration)
        self.learning_rate = float(learning_rate)
        self._weights: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Policy
    # ------------------------------------------------------------------ #
    def _probabilities(self, num_frames: int) -> np.ndarray:
        if self._weights is None or self._weights.size != num_frames:
            self._weights = np.ones(num_frames, dtype=np.float64)
        weights = self._weights
        mix = weights / weights.sum()
        uniform = np.full(num_frames, 1.0 / num_frames)
        return (1.0 - self.exploration) * mix + self.exploration * uniform

    def sample(self, current: Video, target: Video | None,
               ctx: AttackContext) -> SupportPlan:
        config = ctx.config
        shape = current.pixels.shape
        frames = shape[0]
        per_frame = int(np.prod(shape[1:]))
        n = min(int(config.n), frames)
        probs = self._probabilities(frames)

        # Draw n distinct frames sequentially, renormalizing after each
        # draw; record the *pre-draw* probability for the importance
        # weight (standard EXP3 with without-replacement slates).
        remaining = probs.copy()
        chosen: list[int] = []
        draw_probs: list[float] = []
        for _ in range(n):
            total = remaining.sum()
            frame = int(ctx.rng.choice(frames, p=remaining / total))
            chosen.append(frame)
            draw_probs.append(float(probs[frame]))
            remaining[frame] = 0.0

        support = np.zeros(shape, dtype=bool)
        budget = min(int(config.k), n * per_frame)
        per_frame_budget = np.full(n, budget // n)
        per_frame_budget[: budget % n] += 1
        flat = support.reshape(frames, -1)
        for frame, count in zip(chosen, per_frame_budget):
            if count == 0:
                continue
            picks = ctx.rng.choice(per_frame, size=int(count), replace=False)
            flat[frame, picks] = True
        return SupportPlan(support=support,
                           metadata={"frames": chosen, "probs": draw_probs})

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def update(self, plan: SupportPlan, report: AttackReport,
               ctx: AttackContext) -> None:
        trace = report.trace
        if not trace or self._weights is None:
            return
        start = float(trace[0])
        best = float(min(trace))
        # Relative objective drop in [0, 1]; the objective is built from
        # retrieval-list positions, so this is the episode's rank shift.
        reward = float(np.clip((start - best) / (abs(start) + 1e-9),
                               0.0, 1.0))
        scale = self.exploration * self.learning_rate / self._weights.size
        for frame, prob in zip(plan.metadata.get("frames", ()),
                               plan.metadata.get("probs", ())):
            estimate = reward / max(float(prob), 1e-6)
            self._weights[frame] *= float(np.exp(scale * estimate))
        # Keep the weights bounded; EXP3 only cares about ratios.
        self._weights /= self._weights.max()
        gauge("attack.rl.reward").set(reward)

    # ------------------------------------------------------------------ #
    # Persistence (the learned policy is part of a checkpointed run)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        return {"weights": None if self._weights is None
                else self._weights.copy()}

    def load_state(self, state: dict) -> None:
        weights = state.get("weights")
        self._weights = None if weights is None else \
            np.asarray(weights, dtype=np.float64).copy()


__all__ = [
    "DenseSampler",
    "PriorSampler",
    "RandomSampler",
    "RLFrameSampler",
    "SaliencySampler",
    "TransferSampler",
]
