"""Slow reference implementations the differential oracles compare against.

Production ops have exactly one implementation each; the slower
equivalents they replaced live here, used only as the reference side of
an oracle pair (and as the historical "before" leg of the hot-path
bench).

* :func:`conv2d` / :func:`conv3d` — the strided-``einsum`` convolutions:
  a ``sliding_window_view`` over the padded input contracted with the
  weights, gradients by ``einsum`` plus one scatter-add per kernel
  offset.  Same signature and autograd contract as
  :func:`repro.nn.functional.conv2d` / ``conv3d`` (which run the im2col
  GEMM kernels of :mod:`repro.perf.gemm_conv`); outputs and gradients
  agree within ``allclose``.  They record no trace-replay rule, so a
  trace that meets one falls back to eager.
* :func:`eager_forwards` — runs every
  :meth:`~repro.models.feature_extractor.FeatureExtractor.embed_videos`
  inside the block on the eager forward (``fuse=False``) instead of the
  production trace replay, so one scenario can be pinned on both paths.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.tensor import Tensor, make_op

#: Subscript letters for output positions and kernel offsets, by rank.
_POS = "thw"
_KER = "ijk"


def _expand(value, rank: int) -> tuple[int, ...]:
    if isinstance(value, (tuple, list)):
        if len(value) != rank:
            raise ValueError(f"expected {rank} values, got {value!r}")
        return tuple(int(v) for v in value)
    return (int(value),) * rank


def _conv_einsum(x: Tensor, weight: Tensor, bias: Tensor | None,
                 stride, padding, op: str) -> Tensor:
    """Rank-generic strided-einsum convolution (forward + backward)."""
    rank = weight.ndim - 2
    stride = _expand(stride, rank)
    padding = _expand(padding, rank)
    if weight.shape[1] != x.shape[1]:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, "
                         f"weight expects {weight.shape[1]}")
    kernel = weight.shape[2:]
    spatial = x.shape[2:]
    pos, ker = _POS[-rank:], _KER[:rank]
    axes = tuple(range(2, 2 + rank))
    every = (slice(None), slice(None))

    padded = np.pad(x.data, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
    windows = sliding_window_view(padded, kernel, axis=axes)[
        every + tuple(slice(None, None, s) for s in stride)]
    out = np.einsum(f"bc{pos}{ker},fc{ker}->bf{pos}", windows, weight.data,
                    optimize=True)
    if bias is not None:
        out = out + bias.data.reshape((1, -1) + (1,) * rank)
    out_spatial = out.shape[2:]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, fwd=None):
        grad_w = None
        if weight.requires_grad:
            grad_w = np.einsum(f"bc{pos}{ker},bf{pos}->fc{ker}", windows,
                               grad, optimize=True)
        grad_x = None
        if x.requires_grad:
            grad_padded = np.zeros_like(padded)
            for offset in np.ndindex(*kernel):
                contrib = np.einsum(f"bf{pos},fc->bc{pos}", grad,
                                    weight.data[every + offset],
                                    optimize=True)
                grad_padded[every + tuple(
                    slice(o, o + n * s, s)
                    for o, n, s in zip(offset, out_spatial, stride))] += contrib
            grad_x = grad_padded[every + tuple(
                slice(p, p + n) for p, n in zip(padding, spatial))]
        if bias is None:
            return grad_x, grad_w
        grad_b = grad.sum(axis=(0,) + axes) if bias.requires_grad else None
        return grad_x, grad_w, grad_b

    return make_op(out, parents, backward, op)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """Reference 2-D convolution (strided einsum); op name ``conv2d``."""
    return _conv_einsum(x, weight, bias, stride, padding, "conv2d")


def conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """Reference 3-D convolution (strided einsum); op name ``conv3d``."""
    return _conv_einsum(x, weight, bias, stride, padding, "conv3d")


@contextlib.contextmanager
def eager_forwards():
    """Force the eager reference forward for every embed in the block.

    Patches the class method for the whole process, so it is meant for
    single-threaded tests and oracle runs; nesting is safe.
    """
    from repro.models.feature_extractor import FeatureExtractor

    replayed = FeatureExtractor.embed_videos

    def eager(self, videos, batch_size=16, fuse=True):
        return replayed(self, videos, batch_size=batch_size, fuse=False)

    FeatureExtractor.embed_videos = eager
    try:
        yield
    finally:
        FeatureExtractor.embed_videos = replayed


__all__ = ["conv2d", "conv3d", "eager_forwards"]
