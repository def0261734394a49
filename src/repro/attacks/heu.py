"""HEU: heuristic black-box attacks on video models [16].

HEU selects "key frames" and salient pixels heuristically before running
a query-based optimizer:

* ``"heu-nes"`` — saliency-guided frame/pixel selection + NES gradient
  estimation (the paper's HEU-Nes).
* ``"heu-sim"`` — the paper's ablation "HEU-Sim": the same heuristic
  frame selection but *random* pixel selection (Vanilla's strategy)
  with SimBA optimization.

The saliency heuristic is motion energy: frames are ranked by how much
they differ from their neighbours, and pixels by their temporal
variation — the "prior knowledge" HEU exploits in lieu of a surrogate.

:func:`saliency_support` is the selection rule (the ``SaliencySampler``
strategy component); both attacks are registry compositions built with
:func:`~repro.attacks.registry.build_attack`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import seeded_rng
from repro.video.types import Video


def motion_saliency(video: Video) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(frame_scores, pixel_saliency)`` from temporal differences.

    ``frame_scores`` is ``(N,)`` — mean absolute change of each frame
    against its predecessor (frame 0 scores against frame 1).
    ``pixel_saliency`` is ``(N, H, W, C)`` — per-value absolute temporal
    difference, high where content moves.
    """
    pixels = video.pixels
    diffs = np.abs(np.diff(pixels, axis=0))
    pixel_saliency = np.concatenate([diffs[:1], diffs], axis=0)
    frame_scores = pixel_saliency.reshape(pixels.shape[0], -1).mean(axis=1)
    return frame_scores, pixel_saliency


def saliency_support(video: Video, k: int, n: int,
                     random_pixels: bool = False, rng=None) -> np.ndarray:
    """Build a sparse support: top-``n`` motion frames, ``k`` pixel values.

    Pixels are the most salient values within the chosen frames, or
    uniformly random ones when ``random_pixels`` is set (HEU-Sim).
    """
    rng = seeded_rng(rng)
    frame_scores, pixel_saliency = motion_saliency(video)
    shape = video.pixels.shape
    frames = shape[0]
    n = min(int(n), frames)
    chosen = np.argsort(-frame_scores, kind="stable")[:n]

    support = np.zeros(shape, dtype=bool)
    per_frame = int(np.prod(shape[1:]))
    budget = min(int(k), n * per_frame)
    per_frame_budget = np.full(n, budget // n)
    per_frame_budget[: budget % n] += 1
    flat_support = support.reshape(frames, -1)
    flat_saliency = pixel_saliency.reshape(frames, -1)
    for frame, count in zip(chosen, per_frame_budget):
        if count == 0:
            continue
        if random_pixels:
            picks = rng.choice(per_frame, size=int(count), replace=False)
        else:
            picks = np.argsort(-flat_saliency[frame], kind="stable")[: int(count)]
        flat_support[frame, picks] = True
    return support
