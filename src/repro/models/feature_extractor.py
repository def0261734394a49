"""Feature head: backbone features flattened to the retrieval embedding.

The paper: "The features are flattened as a vector with a size of 768×1"
— a fully-connected projection on top of the backbone.  The embedding
dimension is a parameter (the paper sweeps [256, 512, 768, 1024] for the
surrogate in Figure 4).
"""

from __future__ import annotations

from itertools import count, repeat

import numpy as np

from repro.nn import Linear, Module, Tensor, no_grad
from repro.nn import functional as F
from repro.nn.tensor import concatenate
from repro.models.base import VideoBackbone
from repro.perf.cache import EmbeddingCache, frame_keys
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
        return self.tail(self.backbone(x))

    def tail(self, features: Tensor) -> Tensor:
        """Backbone features → embedding: projection (+ ℓ2 normalize).

        The full forward and the frame-incremental head both end here.
        """
        features = self.projection(features)
        if self.normalize:
            features = F.l2_normalize(features, axis=1)
        return features

    # -------------------------------------------------------------- #
    # Video-level conveniences
    # -------------------------------------------------------------- #
    def embed_videos(self, videos: Video | list[Video],
                     batch_size: int = 16,
                     fuse: bool = True,
                     cache: EmbeddingCache | None = None,
                     keys: list | None = None) -> np.ndarray:
        """Embed videos without building a graph; returns ``(B, D)`` array.

        Each forward replays through the trace-and-fuse engine
        (:mod:`repro.nn.jit`): the first call per batch shape records a
        replay schedule, later calls skip graph construction entirely.
        Replays are bit-identical to eager; ``fuse=False`` runs the
        eager reference forward instead.

        With a ``cache`` (the engine's :class:`EmbeddingCache`; ``keys``
        are the clips' :func:`~repro.perf.cache.frame_keys` when already
        hashed) every feature is stored under its clip key, and a
        frame-separable backbone embeds each chunk of ``batch_size``
        clips that can reuse a frame — one cached, or one repeated
        within the chunk — in two calls: one frame-encoder call over the
        distinct frames no cached encoding covers, and one head call
        that resumes the recurrent state at the longest prefix every
        clip has cached.  A chunk with nothing to reuse runs the full
        forward.  The bytes equal the full forward's over the same
        chunk.  Other backbones decline (counted by reason) and run the
        full forward.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if isinstance(videos, Video):
            videos = [videos]
        if not videos:
            return np.zeros((0, self.feature_dim))
        if cache is not None and cache.enabled:
            if keys is None:
                keys = [frame_keys(video.pixels) for video in videos]
            reason = self._decline_reason(videos)
            if reason is not None:
                cache.decline(reason, len(videos))
        else:
            cache = reason = None
        was_training = self.training
        if was_training:
            self.eval()
        chunks = []
        try:
            with no_grad():
                if cache is not None and reason is None:
                    for start in range(0, len(videos), batch_size):
                        end = start + batch_size
                        chunks.append(self._embed_incremental(
                            videos[start:end], keys[start:end], cache, fuse))
                else:
                    # Convert pixels once up front; chunks are views of
                    # one array.
                    inputs = to_model_input(videos)
                    run = self._fused_forward() if fuse else self.forward
                    for start in range(0, len(videos), batch_size):
                        batch = inputs[start : start + batch_size]
                        chunks.append(run(Tensor(batch)).data)
        finally:
            if was_training:
                self.train()
        features = chunks[0] if len(chunks) == 1 else \
            np.concatenate(chunks, axis=0)
        if cache is not None and reason is not None:
            cache.store(keys, features.copy())
        return features

    def _decline_reason(self, videos: list[Video]) -> str | None:
        """Why these clips cannot embed frame-incrementally, if so."""
        if self.backbone.frame_features is None:
            return "backbone"  # convolutions mix frames
        if type(self).forward is not FeatureExtractor.forward:
            return "forward"  # a custom forward the head would bypass
        shape, dtype = videos[0].pixels.shape, videos[0].pixels.dtype
        if any(video.pixels.shape != shape for video in videos):
            # The full forward rejects the batch (``to_model_input``
            # raises); the head assumes every clip has the same frames.
            return "mixed_shape"
        if any(video.pixels.dtype != dtype for video in videos):
            # The full forward computes a mixed batch in the promoted
            # dtype, so a frame's encoding would depend on its batch.
            return "mixed_dtype"
        return None

    def _incremental_units(self, fuse: bool):
        """The frame encoder and the resumable head, compiled when
        ``fuse`` (built lazily, at the first cached embed)."""
        units = self.__dict__.get("_jit_incremental")
        if units is None:
            from repro.nn import jit

            eager = (_FrameEncoder(self.backbone), _ResumeHead(self))
            units = (eager, tuple(jit.compile(unit) for unit in eager))
            self.__dict__["_jit_incremental"] = units
        return units[fuse]

    def _embed_incremental(self, videos: list[Video], keys: list,
                           cache: EmbeddingCache, fuse: bool) -> np.ndarray:
        """One chunk through the frame cache: encode the uncached
        frames, resume the head, store what was computed."""
        batch, steps = len(videos), len(keys[0])
        start, resumed, digests, encodings = cache.resume(keys)
        if resumed is None and not any(encodings) \
                and len(set(digests)) == len(digests):
            # Nothing to reuse: the full forward, and only clip features
            # to store, so a stream of fresh clips pays no frame or
            # state inserts.
            run = self._fused_forward() if fuse else self.forward
            out = run(Tensor(to_model_input(videos))).data
            cache.store(keys, out.copy(), frames_encoded=len(digests),
                        steps_run=len(digests))
            return out
        encoder, head = self._incremental_units(fuse)
        dim = self.backbone.frame_features
        size = self.backbone.state_features
        width = steps - start
        # The head's one input: every clip's frame encodings from
        # ``start`` on, then the state to resume from.
        packed = np.empty((batch, width * dim + size))
        block = packed[:, :width * dim].reshape(batch, width, dim)
        if resumed is None:
            packed[:, width * dim:] = 0.0
        else:
            for row, (array, source, first) in enumerate(resumed):
                offset = self.feature_dim + (start - first) * size
                packed[row, width * dim:] = array[source, offset:offset + size]
        # One encoder row per distinct uncached frame.
        encode: dict = {}  # digest → encoder row
        gather: list[int] = []  # head position of each encoder row
        copies: list[tuple[int, int]] = []  # (position, encoder row)
        for position, (digest, entry) in enumerate(zip(digests, encodings)):
            if entry is None:
                row = encode.get(digest)
                if row is None:
                    row = encode[digest] = len(gather)
                    gather.append(position)
                copies.append((position, row))
            else:
                array, source = entry
                block[position // width, position % width] = array[source]
        encoded = None
        if gather:
            # Frames are copied channels-first one at a time: numpy's
            # strided copy of a whole stacked batch is ~10x slower.
            height, width_px, channels = videos[0].pixels.shape[1:]
            frames = np.empty((len(gather), channels, height, width_px),
                              videos[0].pixels.dtype)
            for row, position in enumerate(gather):
                frames[row] = videos[position // width].pixels[
                    start + position % width].transpose(2, 0, 1)
            encoded = encoder(Tensor(frames)).data
            for position, row in copies:
                block[position // width, position % width] = encoded[row]
        out = head(Tensor(packed)).data
        out.setflags(write=False)  # cached rows and states are views of it
        # The state after each step but the last, under its digest
        # prefix; one ``(out, row, start + 1)`` entry per clip serves
        # every step (the prefix length locates the step's slot).
        ends = range(start + 1, steps)
        states = [((batch, key[:end]), entry)
                  for key, entry in zip(keys, zip(repeat(out), count(),
                                                  repeat(start + 1)))
                  for end in ends]
        cache.store(keys, out[:, :self.feature_dim],
                    zip(encode, zip(repeat(encoded), encode.values())),
                    states,
                    frames_encoded=len(encode),
                    frames_reused=len(digests) - len(encode),
                    steps_run=batch * width,
                    steps_skipped=batch * start)
        return out[:, :self.feature_dim].copy()

    def _fused_forward(self):
        """The lazily-built :class:`~repro.nn.jit.CompiledModule` wrapper."""
        compiled = self.__dict__.get("_jit_compiled")
        if compiled is None:
            from repro.nn import jit

            compiled = jit.compile(self)
            self.__dict__["_jit_compiled"] = compiled
        return compiled

    def drop_compiled(self) -> None:
        """Forget every replay program (they bake in constants such as a
        hashing head's β); the next embed retraces."""
        self.__dict__.pop("_jit_compiled", None)
        self.__dict__.pop("_jit_incremental", None)

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


class _FrameEncoder(Module):
    """Replay unit: ``(N, C, H, W)`` frames → ``(N, D)`` encodings."""

    def __init__(self, backbone: VideoBackbone) -> None:
        super().__init__()
        self.backbone = backbone

    def forward(self, frames: Tensor) -> Tensor:
        return self.backbone.encode_frames(frames)


class _ResumeHead(Module):
    """Replay unit: the recurrent head plus the extractor's tail.

    Takes one packed ``(B, T·D + S)`` array — ``T`` frame encodings and
    the ``[h | c]`` state to start from — and returns one packed
    ``(B, feature_dim + T·S)`` array: the embedding, then the state
    after every step.
    """

    def __init__(self, extractor: FeatureExtractor) -> None:
        super().__init__()
        self.extractor = extractor

    def forward(self, packed: Tensor) -> Tensor:
        extractor = self.extractor
        backbone = extractor.backbone
        dim, size = backbone.frame_features, backbone.state_features
        batch, total = packed.shape
        steps = (total - size) // dim
        frames = packed[:, :steps * dim].reshape(batch, steps, dim)
        h_final, states = backbone.resume(frames, packed[:, steps * dim:])
        return concatenate(
            [extractor.tail(h_final), states.reshape(batch, steps * size)],
            axis=1)
