"""SparseTransfer: sparsified transfer-attack synthesis (Eq. 1, Algorithm 1).

Alternating optimization of the AE-generation problem

.. math::
   \\min_{θ, I, F} \\; \\mathcal{L}(Fea_ρ(v_{adv}), Fea_ρ(v_t))
   + λ ‖θ ⊙ I ⊙ F‖_2^2
   \\quad s.t. \\; 1^\\top I = k, \\; ‖F‖_{2,0} = n, \\; ‖θ‖_∞ ≤ τ

on the surrogate model ``S``:

1. *θ-step* — gradient descent on the magnitudes under the current masks
   (Algorithm 1 line 3), with the paper's step schedule (0.1 initial,
   ×0.9 every 50 steps) and either the ℓ∞ or ℓ2 budget projection
   (Table IX compares both).
2. *I-step* — ℓp-box ADMM over a first-order utility (line 4): the
   estimated loss decrease of keeping each coordinate, ``−(g⊙θ + λθ²)``.
3. *F-step* — relax ``F`` to a continuous per-frame weight ``C``, take
   dependence-guided gradient steps on ``C`` [47], and re-binarize to the
   top-``n`` frames by ℓ2 score (lines 5–7).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import project_l2, project_linf
from repro.attacks.duo.masks import lp_box_admm_select, select_top_frames
from repro.attacks.duo.priors import TransferPriors
from repro.models.feature_extractor import FeatureExtractor
from repro.nn import Tensor
from repro.obs import counter, gauge, span
from repro.utils.logging import get_logger
from repro.utils.seeding import seeded_rng
from repro.video.types import Video

logger = get_logger("attacks.duo.transfer")


class SparseTransfer:
    """The transfer component of DUO.

    Parameters
    ----------
    surrogate:
        The stolen surrogate feature extractor ``S``.
    k:
        Pixel budget ``1ᵀI = k`` (count of perturbed values in the video).
    n:
        Frame budget ``‖F‖_{2,0} = n``.
    tau:
        Per-value perturbation budget, in 8-bit units as in the paper
        (``τ = 30`` means ``30/255`` on [0, 1] videos).
    lam:
        Regularization weight λ (paper: ``e^{-5}``).
    constraint:
        ``"linf"`` (default, Eq. 1) or ``"l2"`` (Table IX variant).
    outer_iters:
        Alternating sweeps of Algorithm 1's while-loop.
    theta_steps:
        Gradient-descent steps per θ-step.
    target_init:
        Initialize θ from the τ-clipped pixel difference ``v_t − v``
        instead of zero.  The attacker chose ``v_t`` and owns its pixels,
        so this stays inside the threat model; it matters on this
        substrate because tiny synthetic models share almost no
        *non-robust* features, so surrogate-only gradient directions do
        not transfer — the model-agnostic targeted direction does, and
        the surrogate's frame-pixel search then allocates the sparse
        budget over it (see DESIGN.md).
    """

    def __init__(self, surrogate: FeatureExtractor, k: int, n: int,
                 tau: float = 30.0, lam: float = np.exp(-5.0),
                 constraint: str = "linf", outer_iters: int = 3,
                 theta_steps: int = 25, lr: float = 0.1,
                 lr_decay_every: int = 50, lr_decay: float = 0.9,
                 frame_steps: int = 10, target_init: bool = True,
                 targeted: bool = True, rng=None) -> None:
        if constraint not in ("linf", "l2"):
            raise ValueError("constraint must be 'linf' or 'l2'")
        self.surrogate = surrogate
        self.target_init = bool(target_init)
        self.targeted = bool(targeted)
        self._rng = seeded_rng(rng)
        self.k = int(k)
        self.n = int(n)
        self.tau = float(tau) / 255.0
        self.lam = float(lam)
        self.constraint = constraint
        self.outer_iters = int(outer_iters)
        self.theta_steps = int(theta_steps)
        self.lr = float(lr)
        self.lr_decay_every = int(lr_decay_every)
        self.lr_decay = float(lr_decay)
        self.frame_steps = int(frame_steps)

    # -------------------------------------------------------------- #
    # Differentiable surrogate loss
    # -------------------------------------------------------------- #
    def _embed_target(self, target: Video) -> np.ndarray:
        return self.surrogate.embed_videos(target)[0]

    def _loss_and_grad(self, original: Video, perturbation: Tensor,
                       target_feature: np.ndarray) -> tuple[float, Tensor]:
        """Build L(Fea(v+φ), Fea(v_t)) + λ‖φ‖² and return (value, loss node).

        In untargeted mode ``target_feature`` holds the *original's*
        embedding and the distance term is negated (maximize it).
        """
        adv = (Tensor(original.pixels) + perturbation).clip(0.0, 1.0)
        # (N, H, W, C) → (1, C, N, H, W)
        batch = adv.transpose(3, 0, 1, 2).expand_dims(0)
        feature = self.surrogate.embed_tensor(batch)[0]
        distance = ((feature - Tensor(target_feature)) ** 2).sum()
        if not self.targeted:
            distance = -distance
        regularizer = (perturbation * perturbation).sum() * self.lam
        loss = distance + regularizer
        return loss.item(), loss

    def _project_budget(self, theta: np.ndarray) -> np.ndarray:
        if self.constraint == "linf":
            return project_linf(theta, self.tau)
        # ℓ2 variant: same *total* energy as a τ-saturated ℓ∞ ball over the
        # pixel budget, so the two constraints are comparable in Table IX.
        radius = self.tau * np.sqrt(max(self.k, 1))
        return project_l2(theta, radius)

    # -------------------------------------------------------------- #
    # Algorithm-1 steps
    # -------------------------------------------------------------- #
    def _theta_step(self, original: Video, priors: TransferPriors,
                    target_feature: np.ndarray) -> float:
        """Gradient descent on θ under fixed masks; returns final loss."""
        self.surrogate.eval()
        mask = priors.pixel_mask * priors.broadcast_frame_mask
        lr = self.lr
        loss_value = float("inf")
        for step in range(self.theta_steps):
            theta_t = Tensor(priors.theta, requires_grad=True)
            phi = theta_t * Tensor(mask)
            loss_value, loss = self._loss_and_grad(original, phi, target_feature)
            loss.backward()
            grad = theta_t.grad if theta_t.grad is not None else np.zeros_like(
                priors.theta)
            # Normalized step (sign-like) keeps the schedule scale-free.
            denom = np.abs(grad).max()
            if denom > 0:
                grad = grad / denom
            priors.theta = self._project_budget(priors.theta - lr * self.tau * grad)
            if (step + 1) % self.lr_decay_every == 0:
                lr *= self.lr_decay
        return loss_value

    def _pixel_utility(self, original: Video, priors: TransferPriors,
                       target_feature: np.ndarray) -> np.ndarray:
        """First-order utility of keeping each coordinate in ``I``.

        Because the θ-step re-optimizes magnitudes after the mask update
        (alternating minimization), the utility of a coordinate is the
        loss decrease *achievable* within the per-value budget —
        ``|g_i|·τ − λτ²`` with the optimal ``θ_i = −τ·sign(g_i)`` — not
        the decrease at the current θ.
        """
        full_mask = priors.broadcast_frame_mask * np.ones_like(priors.theta)
        theta_t = Tensor(priors.theta, requires_grad=True)
        phi = theta_t * Tensor(full_mask)
        _, loss = self._loss_and_grad(original, phi, target_feature)
        loss.backward()
        grad = theta_t.grad if theta_t.grad is not None else np.zeros_like(
            priors.theta)
        return np.abs(grad) * self.tau - self.lam * self.tau**2

    def _frame_step(self, original: Video, priors: TransferPriors,
                    target_feature: np.ndarray) -> None:
        """Continuous frame relaxation C, gradient steps, top-n re-binarize."""
        frames = priors.theta.shape[0]
        c = priors.frame_mask.copy()
        # Start strictly inside (0, 1] so de-selected frames can recover.
        c = 0.5 * c + 0.5
        lr = self.lr
        for _ in range(self.frame_steps):
            c_t = Tensor(c.reshape(frames, 1, 1, 1), requires_grad=True)
            phi = Tensor(priors.pixel_mask * priors.theta) * c_t
            _, loss = self._loss_and_grad(original, phi, target_feature)
            loss.backward()
            grad = c_t.grad.reshape(frames) if c_t.grad is not None else \
                np.zeros(frames)
            denom = np.abs(grad).max()
            if denom > 0:
                grad = grad / denom
            c = np.clip(c - lr * grad, 0.0, 1.0)
        # Rank frames by the ℓ2 norm of their weighted perturbation rows.
        row_scores = (priors.pixel_mask * priors.theta) * c[:, None, None, None]
        priors.frame_mask = select_top_frames(row_scores, self.n)

    # -------------------------------------------------------------- #
    def run(self, original: Video, target: Video,
            init: TransferPriors | None = None) -> TransferPriors:
        """Produce ``{I, F, θ}`` for the pair ``(v, v_t)``."""
        shape = original.pixels.shape
        priors = init if init is not None else TransferPriors.fresh(shape)
        if init is None and self.target_init:
            if self.targeted:
                priors.theta = self._project_budget(
                    target.pixels - original.pixels)
            else:
                # No target to interpolate toward: start from a random
                # budget-saturating direction.
                priors.theta = self._project_budget(
                    self._rng.choice((-1.0, 1.0), size=shape) * self.tau)
        reference = target if self.targeted else original
        target_feature = self._embed_target(reference)

        with span("attack.duo.transfer", k=self.k, n=self.n):
            for sweep in range(self.outer_iters):
                with span("attack.duo.transfer.sweep", sweep=sweep + 1):
                    with span("attack.duo.transfer.theta_step"):
                        loss_value = self._theta_step(
                            original, priors, target_feature)
                    with span("attack.duo.transfer.pixel_select"):
                        utility = self._pixel_utility(
                            original, priors, target_feature)
                        priors.pixel_mask = lp_box_admm_select(utility, self.k)
                    with span("attack.duo.transfer.frame_step"):
                        self._frame_step(original, priors, target_feature)
                counter("attack.duo.transfer.sweeps").inc()
                gauge("attack.duo.transfer.loss").set(loss_value)
                logger.info("sparse-transfer sweep %d/%d loss=%.4f",
                            sweep + 1, self.outer_iters, loss_value)

            # Final magnitude refinement under the converged masks.
            with span("attack.duo.transfer.theta_step"):
                self._theta_step(original, priors, target_feature)
        return priors
