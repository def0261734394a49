"""Feature head: backbone features flattened to the retrieval embedding.

The paper: "The features are flattened as a vector with a size of 768×1"
— a fully-connected projection on top of the backbone.  The embedding
dimension is a parameter (the paper sweeps [256, 512, 768, 1024] for the
surrogate in Figure 4).
"""

from __future__ import annotations

import numpy as np

from repro.nn import Linear, Module, Tensor, no_grad
from repro.nn import functional as F
from repro.models.base import VideoBackbone
from repro.utils.seeding import seeded_rng
from repro.video.types import Video, to_model_input


class FeatureExtractor(Module):
    """``Fea_ρ(v)``: backbone + linear projection (+ optional ℓ2 normalize)."""

    def __init__(self, backbone: VideoBackbone, feature_dim: int = 768,
                 normalize: bool = True, rng=None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.backbone = backbone
        self.feature_dim = int(feature_dim)
        self.normalize = bool(normalize)
        self.projection = Linear(backbone.out_features, self.feature_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Embed a batch ``(B, C, T, H, W)`` into ``(B, feature_dim)``."""
        features = self.projection(self.backbone(x))
        if self.normalize:
            features = F.l2_normalize(features, axis=1)
        return features

    # -------------------------------------------------------------- #
    # Video-level conveniences
    # -------------------------------------------------------------- #
    def embed_videos(self, videos: Video | list[Video],
                     batch_size: int = 16,
                     fuse: bool = True) -> np.ndarray:
        """Embed videos without building a graph; returns ``(B, D)`` array.

        Each forward replays through the trace-and-fuse engine
        (:mod:`repro.nn.jit`): the first call per batch shape records a
        replay schedule, later calls skip graph construction entirely.
        Replays are bit-identical to eager; ``fuse=False`` runs the
        eager reference forward instead.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if isinstance(videos, Video):
            videos = [videos]
        if not videos:
            return np.zeros((0, self.feature_dim))
        # Convert pixels once up front; chunks are views of one array.
        inputs = to_model_input(videos)
        was_training = self.training
        if was_training:
            self.eval()
        run = self._fused_forward() if fuse else self.forward
        chunks = []
        try:
            with no_grad():
                for start in range(0, len(videos), batch_size):
                    batch = inputs[start : start + batch_size]
                    chunks.append(run(Tensor(batch)).data)
        finally:
            if was_training:
                self.train()
        return np.concatenate(chunks, axis=0)

    def _fused_forward(self):
        """The lazily-built :class:`~repro.nn.jit.CompiledModule` wrapper."""
        compiled = self.__dict__.get("_jit_compiled")
        if compiled is None:
            from repro.nn import jit

            compiled = jit.compile(self)
            self.__dict__["_jit_compiled"] = compiled
        return compiled

    def embed_tensor(self, x: Tensor) -> Tensor:
        """Differentiable embedding of an already-built input tensor.

        Runs through the same compiled module as :meth:`embed_videos`.
        With gradients on, the first call per signature traces a
        grad-mode program and later calls replay it; the result's
        backward runs the retained tape, bit-identical to eager.  A
        program holds one forward's activations, so backpropagate each
        result before the next same-shape call (a stale backward
        raises).  :func:`repro.qa.eager_forwards` runs the eager
        forward instead.
        """
        return self._fused_forward()(x)
