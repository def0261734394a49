"""Vanilla baseline: random sparse masks + SimBA queries.

Paper Section V-B: "It first randomly selects pixels for each frame given
a fixed Spa.  Then it uses a query-based attack [53] to generate v_adv."

:func:`random_support` is the selection rule (the ``RandomSampler``
strategy component); the attack itself is the ``"vanilla"`` registry
composition (``build_attack(AttackConfig(strategy="vanilla", ...))``).
"""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import seeded_rng


def random_support(shape: tuple[int, ...], k: int, n: int,
                   rng=None) -> np.ndarray:
    """Random sparse support: ``n`` random frames, ``k`` random values.

    The ``k`` values are spread uniformly over the selected frames.
    """
    rng = seeded_rng(rng)
    frames = shape[0]
    per_frame = int(np.prod(shape[1:]))
    n = min(int(n), frames)
    chosen_frames = rng.choice(frames, size=n, replace=False)
    support = np.zeros(shape, dtype=bool)
    budget = min(int(k), n * per_frame)
    per_frame_budget = np.full(n, budget // n)
    per_frame_budget[: budget % n] += 1
    for frame, count in zip(chosen_frames, per_frame_budget):
        if count == 0:
            continue
        picks = rng.choice(per_frame, size=int(count), replace=False)
        support.reshape(frames, -1)[frame, picks] = True
    return support
