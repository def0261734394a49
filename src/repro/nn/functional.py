"""Differentiable array operations: convolutions, pooling, losses.

Convolutions run the im2col GEMM kernels of :mod:`repro.perf.gemm_conv`
(the strided-``einsum`` reference they replaced lives in
:mod:`repro.qa.reference`).  Shapes follow the PyTorch convention:

* 2-D: activations ``(B, C, H, W)``, weights ``(F, C, kH, kW)``.
* 3-D: activations ``(B, C, T, H, W)``, weights ``(F, C, kT, kH, kW)``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.tensor import Tensor, get_tracer, is_grad_enabled, make_op
from repro.perf import gemm_conv


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected 2 values, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _triple(value) -> tuple[int, int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 3:
            raise ValueError(f"expected 3 values, got {value!r}")
        return int(value[0]), int(value[1]), int(value[2])
    return int(value), int(value), int(value)


# ---------------------------------------------------------------------- #
# Convolutions
# ---------------------------------------------------------------------- #
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution")."""
    return _conv_gemm(x, weight, bias, _pair(stride), _pair(padding),
                      "conv2d.gemm")


def conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """3-D cross-correlation over ``(T, H, W)`` volumes."""
    return _conv_gemm(x, weight, bias, _triple(stride), _triple(padding),
                      "conv3d.gemm")


def _conv_gemm(x: Tensor, weight: Tensor, bias: Tensor | None,
               stride: tuple[int, ...], padding: tuple[int, ...],
               op: str) -> Tensor:
    """Convolution via the im2col GEMM kernels of :mod:`repro.perf.gemm_conv`."""
    rank = len(stride) + 2
    if x.ndim != rank or weight.ndim != rank:
        raise ValueError(f"{op} expects {rank}-D input and weight, got "
                         f"{x.shape} and {weight.shape}")
    if weight.shape[1] != x.shape[1]:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, "
                         f"weight expects {weight.shape[1]}")
    # ``cols`` outlives the op only when ``grad_w`` needs it; otherwise
    # the fill goes to the plan's per-thread scratch.
    weight_grad = is_grad_enabled() and weight.requires_grad
    out, cols, plan = gemm_conv.conv_forward(
        x.data, weight.data, stride, padding, weight_grad)
    if bias is not None:
        out += bias.data.reshape((1, -1) + (1,) * len(stride))

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, fwd=None):
        grad_x, grad_w = gemm_conv.conv_backward(
            grad, cols, weight.data, plan, x.requires_grad, weight_grad)
        if bias is None:
            return grad_x, grad_w
        grad_b = grad.sum(axis=(0, *range(2, grad.ndim))) \
            if bias.requires_grad else None
        return grad_x, grad_w, grad_b

    result = make_op(out, parents, backward, op)
    tracer = get_tracer()
    if tracer is not None:
        tracer.record(
            result, parents,
            gemm_conv.bind_replay(x.data, weight.data,
                                  None if bias is None else bias.data,
                                  cols, result.data, plan),
            op=op)
    return result


# ---------------------------------------------------------------------- #
# Pooling
# ---------------------------------------------------------------------- #
def _pool3d_windows(data: np.ndarray, kernel: tuple[int, int, int],
                    stride: tuple[int, int, int]) -> np.ndarray:
    return sliding_window_view(data, kernel, axis=(2, 3, 4))[
        :, :, :: stride[0], :: stride[1], :: stride[2]
    ]


def max_pool3d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Max pooling over ``(T, H, W)``; ``stride`` defaults to the kernel."""
    kernel = _triple(kernel_size)
    stride = kernel if stride is None else _triple(stride)
    out_spatial = tuple((size - k) // step + 1
                        for size, k, step in zip(x.shape[2:], kernel, stride))
    # One input slab per kernel offset, in ``np.ndindex`` order.
    slabs = [
        (slice(None), slice(None)) + tuple(
            slice(o, o + size * step, step)
            for o, size, step in zip(offset, out_spatial, stride))
        for offset in np.ndindex(*kernel)
    ]
    # Forward as a running elementwise max over the slabs: max is
    # order-independent, so this matches the window reduction exactly while
    # never materializing the (B, C, T', H', W', kt, kh, kw) window tensor.
    src = x.data
    out = src[slabs[0]].copy()
    for slab in slabs[1:]:
        np.maximum(out, src[slab], out=out)

    def backward(grad, fwd=None):
        # Each output's gradient goes to every argmax in its window,
        # split evenly between ties so the gradient total is preserved.
        data = x.data
        masks = [data[slab] == out for slab in slabs]
        count = np.zeros(out.shape, dtype=np.intp)
        for mask in masks:
            count += mask
        grad_x = np.zeros_like(data)
        for slab, mask in zip(slabs, masks):
            grad_x[slab] += (mask / count) * grad
        return (grad_x,)

    result = make_op(out, (x,), backward, "max_pool3d")
    tracer = get_tracer()
    if tracer is not None:
        buf = result.data

        def run():
            np.copyto(buf, src[slabs[0]])
            for slab in slabs[1:]:
                np.maximum(buf, src[slab], out=buf)

        tracer.record(result, (x,), run, op="max_pool3d")
    return result


def avg_pool3d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Average pooling over ``(T, H, W)``; ``stride`` defaults to the kernel."""
    kernel = _triple(kernel_size)
    stride = kernel if stride is None else _triple(stride)
    windows = _pool3d_windows(x.data, kernel, stride)
    out = windows.mean(axis=(5, 6, 7))
    out_t, out_h, out_w = out.shape[2:]
    denom = float(np.prod(kernel))

    def backward(grad, fwd=None):
        grad_x = np.zeros_like(x.data)
        share = grad / denom
        for it in range(kernel[0]):
            for ih in range(kernel[1]):
                for iw in range(kernel[2]):
                    grad_x[
                        :,
                        :,
                        it : it + out_t * stride[0] : stride[0],
                        ih : ih + out_h * stride[1] : stride[1],
                        iw : iw + out_w * stride[2] : stride[2],
                    ] += share
        return (grad_x,)

    result = make_op(out, (x,), backward, "avg_pool3d")
    tracer = get_tracer()
    if tracer is not None:
        buf = result.data
        tracer.record(result, (x,),
                      lambda: np.mean(windows, axis=(5, 6, 7), out=buf),
                      op="avg_pool3d")
    return result


def global_avg_pool3d(x: Tensor) -> Tensor:
    """Adaptive average pooling to a single ``(1, 1, 1)`` cell per channel."""
    return x.mean(axis=(2, 3, 4), keepdims=True)


# ---------------------------------------------------------------------- #
# Losses / misc
# ---------------------------------------------------------------------- #
def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between two tensors of equal shape."""
    diff = prediction - target
    return (diff * diff).mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy with integer labels of shape ``(B,)``."""
    labels = np.asarray(labels)
    log_probs = logits.log_softmax(axis=-1)
    batch = logits.shape[0]
    picked = log_probs[np.arange(batch), labels]
    return -picked.mean()


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit (function form)."""
    return x.relu()


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Project rows of ``x`` onto the unit sphere along ``axis``."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def pairwise_squared_distances(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs squared euclidean distances between rows of ``a`` and ``b``.

    ``a`` is ``(n, d)``, ``b`` is ``(m, d)``; the result is ``(n, m)``.
    Distances are clamped at zero to absorb floating-point noise.
    """
    a_sq = (a * a).sum(axis=1, keepdims=True)
    b_sq = (b * b).sum(axis=1, keepdims=True)
    cross = a @ b.transpose(1, 0)
    return (a_sq + b_sq.transpose(1, 0) - cross * 2.0).clip(0.0, None)
