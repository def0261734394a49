"""Deep-hashing retrieval head (HashNet-style, paper ref [42]).

The paper's Figure-1 system is modeled on HashNet: embeddings are driven
toward binary codes and retrieval uses Hamming distance.  This module
provides the continuation-based head: at train time codes pass through a
``tanh(β·x)`` relaxation whose sharpness β can be scheduled upward; at
retrieval time codes are binarized to ±1 and compared with
:func:`repro.retrieval.similarity.hamming`.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import VideoBackbone
from repro.models.feature_extractor import FeatureExtractor
from repro.nn import Linear, Module, Tensor, no_grad
from repro.utils.seeding import seeded_rng
from repro.video.types import Video, to_model_input


class HashingHead(FeatureExtractor):
    """Backbone + projection + tanh continuation toward binary codes.

    Subclasses :class:`FeatureExtractor` so it slots into every trainer,
    engine, and attack unchanged; ``feature_dim`` becomes the code length
    in bits.
    """

    def __init__(self, backbone: VideoBackbone, code_bits: int = 32,
                 beta: float = 1.0, rng=None) -> None:
        super().__init__(backbone, feature_dim=code_bits, normalize=False,
                         rng=rng)
        self.code_bits = int(code_bits)
        self.beta = float(beta)

    def tail(self, features: Tensor) -> Tensor:
        """Relaxed codes in ``(−1, 1)``: ``tanh(β · proj(features))``."""
        return (self.projection(features) * self.beta).tanh()

    def sharpen(self, factor: float = 2.0) -> None:
        """Continuation step: increase β so codes approach ±1."""
        self.beta *= float(factor)
        # Replay schedules bake β in as a constant: retrace on next use.
        self.drop_compiled()

    def binary_codes(self, videos: Video | list[Video],
                     batch_size: int = 16) -> np.ndarray:
        """Hard ±1 codes for retrieval-time indexing."""
        relaxed = self.embed_videos(videos, batch_size=batch_size)
        codes = np.sign(relaxed)
        codes[codes == 0] = 1.0
        return codes
