"""Common attack interface and perturbation projections."""

from __future__ import annotations

import numpy as np

from repro.attacks.report import AttackReport
from repro.video.types import Video


class Attack:
    """Base class: an attack maps ``(v, v_t)`` to an :class:`AttackReport`."""

    name: str = "attack"

    def run(self, original: Video, target: Video) -> AttackReport:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def project_linf(perturbation: np.ndarray, tau: float) -> np.ndarray:
    """Project ``φ`` onto the ℓ∞ ball of radius ``τ`` (per value)."""
    return np.clip(perturbation, -tau, tau)


def project_l2(perturbation: np.ndarray, radius: float) -> np.ndarray:
    """Project ``φ`` onto the ℓ2 ball of the given radius."""
    norm = float(np.linalg.norm(perturbation))
    if norm <= radius or norm == 0.0:
        return perturbation
    return perturbation * (radius / norm)


def clip_video_range(original_pixels: np.ndarray,
                     perturbation: np.ndarray) -> np.ndarray:
    """Trim ``φ`` so that ``v + φ`` stays inside the valid pixel range."""
    clipped = np.clip(original_pixels + perturbation, 0.0, 1.0)
    return clipped - original_pixels
