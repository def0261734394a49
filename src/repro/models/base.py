"""Common interface for video backbones."""

from __future__ import annotations

from repro.nn import Module, Tensor


class VideoBackbone(Module):
    """A network mapping a video batch ``(B, C, T, H, W)`` to ``(B, D)``.

    Subclasses must set :attr:`out_features` at construction time so heads
    can be wired without a dry-run forward pass.
    """

    out_features: int
    #: Width of one frame's encoding, for backbones that encode every
    #: frame on its own and aggregate the encodings with a recurrent
    #: head.  Those also define ``encode_frames(frames)``,
    #: ``resume(encodings, state)`` and ``state_features`` (see
    #: :class:`~repro.models.resnet.ResNetLSTM`); ``None`` for backbones
    #: whose convolutions mix frames.
    frame_features: int | None = None

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def validate_input(self, x: Tensor) -> None:
        """Raise a clear error for mis-shaped inputs."""
        if x.ndim != 5:
            raise ValueError(
                f"{type(self).__name__} expects (B, C, T, H, W); got shape {x.shape}"
            )
