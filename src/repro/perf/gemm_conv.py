"""im2col + GEMM convolution kernels with a per-shape plan cache.

The seed implementation of ``conv2d``/``conv3d`` contracts a strided
``sliding_window_view`` with ``einsum``.  That avoids materialising the
im2col matrix but leaves BLAS unable to see a single large GEMM, and the
einsum path re-plans its contraction on every call.

These kernels materialise im2col in the layout ``(B, C, *K, *P)`` —
channels × kernel offsets × output positions — filled by one strided
*slab copy per kernel offset* (no element gathers: every copy's inner
run is a contiguous output row), then reduce forward and both gradients
to plain BLAS calls:

* forward:   ``out[b] = W₂ @ cols[b]``            (``W₂`` is ``(F, C·K)``)
* grad_w:    ``gW = Σ_b grad[b] @ cols[b].T``     (one ``tensordot``)
* grad_x:    ``gcols[b] = W₂.T @ grad[b]`` then the inverse slab scatter

Because the output positions are the trailing axis, the forward result
reshapes straight into ``(B, F, *out_spatial)`` with no transpose.

A :class:`ConvPlan` per ``(shape, stride, padding)`` caches the derived
geometry and owns a reusable scratch buffer for ``cols``; the buffer is
only handed out on inference calls (no autograd recording), because the
backward closure of a recorded op must keep its own ``cols`` alive.

This is the only production conv: ``repro.nn.functional.conv2d`` /
``conv3d`` call these kernels for every problem size.  All kernels
operate on plain ``numpy`` arrays — autograd wiring stays in
``repro.nn.functional``.  Outputs and gradients match the strided-einsum
reference in :mod:`repro.qa.reference` within ``allclose`` (same dtype,
different summation order).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.obs import counter


def _kernel_offsets(kernel: tuple[int, ...]):
    """All kernel-offset index tuples, row-major (matches reshape order)."""
    return np.ndindex(*kernel)


def _slab(out_spatial, stride, offset):
    """Strided slices picking one kernel offset's input slab."""
    return tuple(
        slice(off, off + size * step, step)
        for off, size, step in zip(offset, out_spatial, stride)
    )


# ---------------------------------------------------------------------- #
# Plan cache
# ---------------------------------------------------------------------- #
class ConvPlan:
    """Cached geometry + scratch buffer for one conv problem shape."""

    __slots__ = ("x_shape", "w_shape", "stride", "padding", "out_spatial",
                 "cols_shape", "positions", "kernel_elems",
                 "padded_shape", "view_strides", "core_slices", "hits",
                 "_tls", "scratch_bytes")

    def __init__(self, x_shape, w_shape, stride, padding) -> None:
        self.x_shape = x_shape
        self.w_shape = w_shape
        self.stride = stride
        self.padding = padding
        spatial = x_shape[2:]
        kernel = w_shape[2:]
        self.out_spatial = tuple(
            (size + 2 * pad - k) // step + 1
            for size, pad, k, step in zip(spatial, padding, kernel, stride)
        )
        batch, in_ch = x_shape[0], x_shape[1]
        # cols layout: (B, C, *kernel, *out_spatial) → (B, C·K, P) for GEMM.
        self.cols_shape = (batch, in_ch, *kernel, *self.out_spatial)
        self.positions = int(np.prod(self.out_spatial))
        self.kernel_elems = int(np.prod(kernel))
        self.padded_shape = (batch, in_ch,
                             *(s + 2 * p for s, p in zip(spatial, padding)))
        # Element strides of the im2col window view over the (C-contiguous)
        # padded input, kernel axes ahead of position axes — so the fill is
        # a single as_strided + copyto with no per-call view construction.
        elem_strides = [1]
        for size in reversed(self.padded_shape[1:]):
            elem_strides.append(elem_strides[-1] * size)
        elem_strides.reverse()
        spatial_strides = elem_strides[2:]
        self.view_strides = tuple(elem_strides[:2]) + tuple(spatial_strides) \
            + tuple(s * step for s, step in zip(spatial_strides, stride))
        self.core_slices = (slice(None), slice(None)) + tuple(
            slice(p, p + s) for p, s in zip(padding, spatial))
        self.hits = 0
        # Scratch is per *thread*: the serving worker pool (and the
        # churn stress harness) run inference convs of the same shape
        # concurrently, and a plan-wide buffer would let one thread's
        # im2col fill tear another's mid-GEMM.
        self._tls = threading.local()
        self.scratch_bytes = 0

    def cols_buffer(self, reuse: bool) -> np.ndarray:
        """A ``cols`` buffer; the cached scratch only on inference calls."""
        if not reuse:
            return np.empty(self.cols_shape)
        scratch = getattr(self._tls, "cols", None)
        if scratch is None:
            scratch = np.empty(self.cols_shape)
            self._tls.cols = scratch
            self.scratch_bytes += scratch.nbytes
        return scratch

    def padded_buffer(self) -> np.ndarray:
        """Reusable zero-padded input buffer (inference calls only).

        The border is zeroed once at allocation; every call overwrites the
        full core, so the zeros never need refreshing.
        """
        scratch = getattr(self._tls, "padded", None)
        if scratch is None:
            scratch = np.zeros(self.padded_shape)
            self._tls.padded = scratch
            self.scratch_bytes += scratch.nbytes
        return scratch


#: LRU bound shared by this plan cache and the jit trace cache.
MAX_PLANS = 64
_plans: OrderedDict[tuple, ConvPlan] = OrderedDict()
_plan_misses = 0


def get_plan(x_shape, w_shape, stride, padding) -> ConvPlan:
    """Fetch (or build) the plan for one problem shape, LRU-bounded."""
    global _plan_misses
    key = (x_shape, w_shape, stride, padding)
    plan = _plans.get(key)
    if plan is None:
        plan = ConvPlan(x_shape, w_shape, stride, padding)
        _plans[key] = plan
        _plan_misses += 1
        while len(_plans) > MAX_PLANS:
            _plans.popitem(last=False)
            counter("perf.plan_cache.evictions").inc()
    else:
        plan.hits += 1
        _plans.move_to_end(key)
    return plan


def plan_cache_info() -> dict:
    """Plan-cache statistics (size, cap, hits, misses, scratch bytes)."""
    return {
        "size": len(_plans),
        "cap": MAX_PLANS,
        "hits": sum(plan.hits for plan in _plans.values()),
        "misses": _plan_misses,
        "scratch_bytes": sum(plan.scratch_bytes for plan in _plans.values()),
    }


def clear_plan_cache() -> None:
    """Drop all cached plans and scratch buffers."""
    global _plan_misses
    _plans.clear()
    _plan_misses = 0


# ---------------------------------------------------------------------- #
# N-D kernels (2-D and 3-D differ only in rank)
# ---------------------------------------------------------------------- #
def _zero_pad(x: np.ndarray, padding) -> np.ndarray:
    """Symmetric spatial zero padding (``np.pad`` minus its call overhead)."""
    if not any(padding):
        return x
    padded = np.zeros(
        x.shape[:2] + tuple(s + 2 * p for s, p in zip(x.shape[2:], padding)),
        dtype=x.dtype,
    )
    core = tuple(slice(p, p + s) for p, s in zip(padding, x.shape[2:]))
    padded[(slice(None), slice(None), *core)] = x
    return padded


def conv_forward(x: np.ndarray, weight: np.ndarray, stride, padding,
                 reuse_scratch: bool = False):
    """GEMM forward; returns ``(out, cols, padded_shape)``.

    ``cols`` is the ``(B, C·K, P)`` im2col matrix the backward pass needs
    for ``grad_w``; callers must not hold it past the op when
    ``reuse_scratch`` is set.
    """
    plan = get_plan(x.shape, weight.shape, stride, padding)
    batch, in_ch = x.shape[0], x.shape[1]
    out_ch = weight.shape[0]

    if reuse_scratch and any(padding):
        padded = plan.padded_buffer()
        padded[plan.core_slices] = x
    else:
        padded = _zero_pad(x, padding)
        if not padded.flags.c_contiguous:  # padding (0, ...) returns x as-is
            padded = np.ascontiguousarray(padded)

    # im2col in one C-level copy: the plan pre-computes the strides of the
    # window view over the padded input (kernel axes ahead of position
    # axes, positions stepped by ``stride``), so the windowed-transposed
    # view is one ``as_strided`` and the fill is one ``copyto`` whose
    # inner runs are whole output rows (stride-1 contiguous).
    item = padded.itemsize
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=plan.cols_shape,
        strides=tuple(s * item for s in plan.view_strides))
    cols = plan.cols_buffer(reuse_scratch)
    np.copyto(cols, windows)

    mat = cols.reshape(batch, in_ch * plan.kernel_elems, plan.positions)
    out = np.matmul(weight.reshape(out_ch, -1), mat)
    return out.reshape(batch, out_ch, *plan.out_spatial), mat, plan.padded_shape


def conv_backward(grad: np.ndarray, cols: np.ndarray, weight: np.ndarray,
                  x_shape, padded_shape, stride, padding,
                  need_grad_x: bool, need_grad_w: bool):
    """GEMM backward; returns ``(grad_x, grad_w)`` (``None`` when unneeded)."""
    batch, in_ch = x_shape[0], x_shape[1]
    spatial = x_shape[2:]
    out_ch = weight.shape[0]
    kernel = weight.shape[2:]
    out_spatial = grad.shape[2:]
    positions = int(np.prod(out_spatial))

    grad_mat = grad.reshape(batch, out_ch, positions)
    grad_w = None
    if need_grad_w:
        grad_w = np.tensordot(grad_mat, cols,
                              axes=([0, 2], [0, 2])).reshape(weight.shape)
    grad_x = None
    if need_grad_x:
        gcols = np.matmul(weight.reshape(out_ch, -1).T, grad_mat)
        gcols = gcols.reshape(batch, in_ch, *kernel, *out_spatial)
        grad_padded = np.zeros(padded_shape)
        for offset in _kernel_offsets(kernel):
            grad_padded[(slice(None), slice(None),
                         *_slab(out_spatial, stride, offset))] += \
                gcols[(slice(None), slice(None), *offset)]
        crop = tuple(slice(p, p + size) for p, size in zip(padding, spatial))
        grad_x = grad_padded[(slice(None), slice(None), *crop)]
    return grad_x, grad_w


# ---------------------------------------------------------------------- #
# Trace replay (repro.nn.jit)
# ---------------------------------------------------------------------- #
def bind_replay(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                cols_mat: np.ndarray, out_nd: np.ndarray,
                stride, padding):
    """Pre-bind one traced GEMM conv into a replay thunk.

    Everything shape-dependent — the plan, the padded staging buffer, the
    ``as_strided`` window view, the reshaped GEMM operands — is resolved
    here, once; the returned zero-arg thunk recomputes ``out_nd`` (and
    ``cols_mat``, which grad-mode backward closures captured) in place
    from the *current* contents of ``x``.  Rank-agnostic: the same code
    serves conv2d and conv3d.
    """
    plan = get_plan(x.shape, weight.shape, stride, padding)
    w2 = weight.reshape(weight.shape[0], -1)
    if any(padding):
        base = np.zeros(plan.padded_shape, dtype=x.dtype)
        core = plan.core_slices
    elif x.flags.c_contiguous:
        base, core = x, None
    else:
        # Mirrors the eager path's ascontiguousarray staging copy.
        base = np.empty(x.shape, dtype=x.dtype)
        core = (slice(None),) * x.ndim
    item = base.itemsize
    windows = np.lib.stride_tricks.as_strided(
        base, shape=plan.cols_shape,
        strides=tuple(s * item for s in plan.view_strides))
    cols_nd = cols_mat.reshape(plan.cols_shape)
    out_mat = out_nd.reshape(out_nd.shape[0], out_nd.shape[1], plan.positions)
    bias_r = None if bias is None else \
        bias.reshape((1, -1) + (1,) * (out_nd.ndim - 2))

    def run():
        if core is not None:
            base[core] = x
        np.copyto(cols_nd, windows)
        np.matmul(w2, cols_mat, out=out_mat)
        if bias_r is not None:
            np.add(out_nd, bias_r, out=out_nd)

    return run
