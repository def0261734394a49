"""ResNet-18/34 frame encoders with an LSTM temporal head.

Mirrors the paper's Figure-1 retrieval model ("a long short-term memory
and a stacked convolution neural network for temporal and spatial feature
extraction"): a residual 2-D CNN encodes each frame, an LSTM aggregates
the frame features over time, and the final hidden state is the video
feature.  ResNet-34 differs from ResNet-18 by stage depth, as in He et
al. (CVPR'16).
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    BatchNorm,
    Conv2d,
    Identity,
    LSTM,
    Module,
    ReLU,
    Sequential,
    Tensor,
    concatenate,
    stack,
)
from repro.models.base import VideoBackbone
from repro.utils.seeding import seeded_rng


class BasicBlock(Module):
    """Standard two-convolution residual block with optional downsample."""

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 rng=None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride,
                            padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, padding=1,
                            bias=False, rng=rng)
        self.bn2 = BatchNorm(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False,
                       rng=rng),
                BatchNorm(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        return (out + self.shortcut(x)).relu()


class ResNetLSTM(VideoBackbone):
    """Per-frame residual CNN + temporal LSTM video encoder.

    Parameters
    ----------
    stage_depths:
        Number of :class:`BasicBlock`s per stage; ``(2, 2)`` gives the
        ResNet-18-flavoured encoder, ``(3, 4)`` the ResNet-34 flavour.
    """

    def __init__(self, stage_depths: tuple[int, ...] = (2, 2),
                 in_channels: int = 3, width: int = 8, hidden: int | None = None,
                 rng=None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.stem = Sequential(
            Conv2d(in_channels, width, 3, stride=2, padding=1, bias=False, rng=rng),
            BatchNorm(width),
            ReLU(),
        )
        blocks: list[Module] = []
        channels = width
        for stage, depth in enumerate(stage_depths):
            out_channels = width * (2**stage)
            for block_index in range(depth):
                stride = 2 if (stage > 0 and block_index == 0) else 1
                blocks.append(BasicBlock(channels, out_channels, stride, rng=rng))
                channels = out_channels
        self.blocks = Sequential(*blocks)
        hidden = hidden if hidden is not None else 2 * channels
        self.temporal = LSTM(channels, hidden, rng=rng)
        self.frame_features = channels
        self.state_features = 2 * hidden
        self.out_features = hidden

    def encode_frames(self, frames: Tensor) -> Tensor:
        """The per-frame 2-D encoder: ``(N, C, H, W)`` frames → ``(N, D)``.

        Each row depends on its own frame only, so any subset of a
        clip's frames encodes to the same bytes as the whole batch.
        """
        return self.blocks(self.stem(frames)).mean(axis=(2, 3))

    def resume(self, frame_features: Tensor, state: Tensor):
        """Run the LSTM over ``(B, T, D)`` frame encodings from ``state``.

        ``state`` is the ``(B, 2·hidden)`` ``[h | c]`` to start from.
        Returns the final hidden state and the ``(B, T, 2·hidden)``
        ``[h | c]`` after every step, each the state a later call can
        resume from.
        """
        hidden = self.temporal.hidden_size
        h, c = state[:, :hidden], state[:, hidden:]
        hs, cs = [], []
        for t in range(frame_features.shape[1]):
            h, c = self.temporal.cell(frame_features[:, t], (h, c))
            hs.append(h)
            cs.append(c)
        return h, concatenate([stack(hs, axis=1), stack(cs, axis=1)], axis=2)

    def forward(self, x: Tensor) -> Tensor:
        self.validate_input(x)
        batch, channels, frames, height, width = x.shape
        per_frame = x.transpose(0, 2, 1, 3, 4).reshape(batch * frames, channels,
                                                       height, width)
        frame_features = self.encode_frames(per_frame).reshape(
            batch, frames, self.frame_features)
        _, (h_final, _) = self.temporal(frame_features)
        return h_final


def resnet18(in_channels: int = 3, width: int = 8, rng=None) -> ResNetLSTM:
    """ResNet-18-flavoured CNN+LSTM encoder (surrogate backbone in the paper)."""
    return ResNetLSTM((2, 2), in_channels=in_channels, width=width, rng=rng)


def resnet34(in_channels: int = 3, width: int = 8, rng=None) -> ResNetLSTM:
    """ResNet-34-flavoured CNN+LSTM encoder (victim backbone in the paper)."""
    return ResNetLSTM((3, 4), in_channels=in_channels, width=width, rng=rng)
