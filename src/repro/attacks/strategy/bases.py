"""Perturbation bases: *what space* the feedback model searches.

:class:`PixelBasis` is the paper's search space — the search moves pixel
coordinates of the sampled support directly (dense when the plan has no
mask).  :class:`LowRankBasis` is the new adversary substrate: a
TenAd-style rank-``r`` factorization of the perturbation cube, where the
search moves ``r·(T + H + W)`` factor coefficients and every probe is a
*structured, video-wide* perturbation instead of isolated pixels.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.strategy.protocols import AttackContext, BasisState, \
    SupportPlan
from repro.video.types import Video


class PixelBasis:
    """Search pixel coordinates directly (sparse support or dense)."""

    name = "pixel"

    def prepare(self, current: Video, plan: SupportPlan,
                ctx: AttackContext) -> BasisState:
        support = plan.support
        if support is None:
            support = np.ones(current.pixels.shape, dtype=bool)
        return BasisState(space="pixel", support=support,
                          initial=plan.initial,
                          project_initial=plan.project_initial)


class LowRankBasis:
    """TenAd-style low-rank factor basis over the ``(T, H, W)`` cube.

    The perturbation is parameterized as a rank-``r`` CP tensor

    .. math:: φ_{t,h,w,c} = m_t · \\sum_{i=1}^{r} U_{i,t} V_{i,h} W_{i,w}

    shared across channels, where ``m`` is an optional frame mask taken
    from the sampler's plan (so the composition "RL frames × low-rank"
    learns *which frames* while the basis shapes *how* they move).  The
    search space has ``r·(T + H + W)`` coefficients — for an 8×16×16
    clip at rank 2 that is 80 dimensions instead of 6144 pixels, which
    is the entire point: each coefficient probe perturbs a structured
    slice of the whole video, so SimBA converges in far fewer queries.

    Decoded perturbations are ℓ∞-projected and range-clipped by the
    search *after* decoding; ``epsilon_hint`` is the default
    per-coefficient step, sized so a fresh probe lands near the τ
    boundary (three factors of magnitude ε produce entries ≈ ε³).
    """

    name = "lowrank"

    def __init__(self, rank: int = 2) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = int(rank)

    def prepare(self, current: Video, plan: SupportPlan,
                ctx: AttackContext) -> BasisState:
        shape = current.pixels.shape
        frames, height, width = shape[0], shape[1], shape[2]
        channels = shape[3] if len(shape) > 3 else 1
        rank = self.rank
        dim = rank * (frames + height + width)

        if plan.support is not None:
            touched = plan.support.reshape(frames, -1).any(axis=1)
            frame_mask = touched.astype(np.float64)
        else:
            frame_mask = np.ones(frames, dtype=np.float64)

        split_u = rank * frames
        split_v = split_u + rank * height

        def decode(coefficients: np.ndarray) -> np.ndarray:
            factors_t = coefficients[:split_u].reshape(rank, frames)
            factors_h = coefficients[split_u:split_v].reshape(rank, height)
            factors_w = coefficients[split_v:].reshape(rank, width)
            cube = np.einsum("rt,rh,rw->thw", factors_t, factors_h,
                             factors_w)
            cube = cube * frame_mask[:, None, None]
            return np.repeat(cube[..., None], channels, axis=-1)

        tau = ctx.config.tau_unit()
        epsilon_hint = float(np.cbrt(tau / rank))
        return BasisState(space="coeff", support=plan.support, dim=dim,
                          decode=decode, epsilon_hint=epsilon_hint,
                          metadata={"rank": rank,
                                    "frame_mask": frame_mask.copy()})


__all__ = ["LowRankBasis", "PixelBasis"]
