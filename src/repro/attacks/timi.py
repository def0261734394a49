"""TIMI: translation-invariant momentum-iterative transfer attack [25].

A pure transfer attack (no queries): iterative signed gradient descent on
the surrogate's targeted feature loss, with

* *momentum* accumulation of the ℓ1-normalized gradient (MI), and
* *translation invariance* via spatial smoothing of the gradient with a
  uniform kernel before each step (TI).

As in the paper's evaluation, TIMI perturbs every frame and every pixel
(``n = 16`` dense), which is why its Spa is ~×100 larger than DUO's.

The loop lives in :func:`timi_transfer` (the ``TransferFeedback``
strategy component); the attack is the ``"timi"`` registry composition.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.attacks.base import clip_video_range, project_linf
from repro.attacks.report import AttackReport
from repro.models.feature_extractor import FeatureExtractor
from repro.nn import Tensor
from repro.obs import gauge, span
from repro.video.types import Video


def _surrogate_gradient(surrogate: FeatureExtractor, original: Video,
                        perturbation: np.ndarray,
                        target_feature: np.ndarray) -> np.ndarray:
    """∇φ of the targeted feature loss through the surrogate."""
    phi = Tensor(perturbation, requires_grad=True)
    adv = (Tensor(original.pixels) + phi).clip(0.0, 1.0)
    batch = adv.transpose(3, 0, 1, 2).expand_dims(0)
    feature = surrogate.embed_tensor(batch)[0]
    loss = ((feature - Tensor(target_feature)) ** 2).sum()
    loss.backward()
    return phi.grad if phi.grad is not None else np.zeros_like(perturbation)


def _smooth_gradient(gradient: np.ndarray, kernel_size: int) -> np.ndarray:
    """Translation-invariant smoothing: uniform kernel over (H, W)."""
    return ndimage.uniform_filter(
        gradient, size=(1, kernel_size, kernel_size, 1), mode="nearest")


def timi_transfer(surrogate: FeatureExtractor, original: Video,
                  target: Video, tau: float, iterations: int = 20,
                  momentum: float = 1.0,
                  kernel_size: int = 5) -> AttackReport:
    """Craft a dense TIMI transfer AE for ``(v, v_t)`` (zero queries).

    ``tau`` is the ℓ∞ budget in [0, 1] pixel units.  Returns an
    :class:`~repro.attacks.report.AttackReport` with ``queries=0`` and an
    empty trace (nothing black-box is evaluated).
    """
    if kernel_size % 2 == 0:
        raise ValueError("kernel_size must be odd")
    tau = float(tau)
    iterations = int(iterations)
    surrogate.eval()
    target_feature = surrogate.embed_videos(target)[0]
    step = tau / iterations * 2.0
    perturbation = np.zeros_like(original.pixels)
    velocity = np.zeros_like(perturbation)
    l1 = 0.0

    with span("attack.timi", iterations=iterations):
        for _ in range(iterations):
            with span("attack.timi.iter"):
                gradient = _surrogate_gradient(surrogate, original,
                                               perturbation, target_feature)
                gradient = _smooth_gradient(gradient, int(kernel_size))
                l1 = np.abs(gradient).sum()
                if l1 > 0:
                    gradient = gradient / l1
                velocity = float(momentum) * velocity + gradient
                perturbation = perturbation - step * np.sign(velocity)
                perturbation = clip_video_range(
                    original.pixels, project_linf(perturbation, tau))
        gauge("attack.timi.grad_l1").set(l1)

    adversarial = original.perturbed(perturbation)
    return AttackReport(
        adversarial=adversarial,
        perturbation=adversarial.pixels - original.pixels,
        queries=0,
        metadata={"tau": tau * 255.0, "iterations": iterations})
