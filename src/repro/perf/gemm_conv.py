"""im2col + GEMM convolution kernels with a per-shape plan cache.

These kernels materialise im2col in the layout ``(B, C, *K, *P)`` —
channels × kernel offsets × output positions — and reduce forward and
both gradients to plain BLAS calls:

* forward:   ``out[b] = W₂ @ cols[b]``            (``W₂`` is ``(F, C·K)``)
* grad_w:    ``gW = Σ_b grad[b] @ cols[b].T``     (one ``tensordot``)
* grad_x:    ``gcols[b] = W₂.T @ grad[b]`` then col2im back onto the
  zero-padded input

Because the output positions are the trailing axis, the forward result
reshapes straight into ``(B, F, *out_spatial)`` with no transpose.

Every GEMM runs on exactly this dense ``(B, C·K, P)`` matrix, whatever
the geometry: BLAS kernels pick their column tiling and their
small-matrix path from the problem size, so a GEMM over any other
column count (a padded output grid, say) can round a valid output
differently.  What a plan's *geometry* chooses is only how data moves
to and from that matrix:

* **dense** — one strided copy whose inner runs are single output rows
  (``ow`` elements); col2im is one slab scatter-add per kernel offset,
  in ``np.ndindex`` order.  Used for stride > 1 and whenever the weight
  records a gradient (training), whose ``grad_w`` keeps ``cols``.
* **grid** — stride-1 convs whose weight records no gradient (every
  inference forward and every attack's input-gradient pass).  im2col
  first copies the padded input into ``kw`` column-shifted planes whose
  rows are exactly ``ow`` wide; in those planes every kernel offset's
  ``(oh, ow)`` window is one contiguous run, so the big copy moves
  ``oh·ow``-element runs instead of ``ow``-element ones (skipped below
  :data:`MERGE_ROWS` output rows, where the dense copy is cheaper).
  col2im is one
  ``np.bincount`` over a cached index map from ``gcols`` to the padded
  input: it adds ``gcols`` in memory order, so every input element
  receives its contributions in the same kernel-offset order (from the
  same ``+0.0`` start) as the dense scatter.

Both geometries produce byte-identical ``cols``, GEMM operands and
gradients (``repro.qa`` pair ``conv.grid_vs_dense``).

A :class:`ConvPlan` per ``(shape, stride, padding, geometry)`` caches
the derived geometry.  Each thread gets its own staging buffers and
pre-built ``as_strided`` views (:class:`Im2col`), and a reusable
``cols`` scratch handed out whenever no backward closure keeps ``cols``
(the weight records no gradient).  Replay thunks bind the tracing
thread's.

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
from numpy.lib.stride_tricks import as_strided

from repro.obs import counter


def _contiguous_strides(shape) -> tuple[int, ...]:
    """Element strides of a C-contiguous array of ``shape``."""
    strides = [1]
    for size in reversed(shape[1:]):
        strides.append(strides[-1] * size)
    return tuple(reversed(strides))


def _view(base: np.ndarray, shape, strides) -> np.ndarray:
    """``as_strided`` over ``base`` with strides given in elements."""
    item = base.itemsize
    return as_strided(base, shape=shape,
                      strides=tuple(s * item for s in strides))


# ---------------------------------------------------------------------- #
# Plan cache
# ---------------------------------------------------------------------- #
#: Fewest output rows a grid plan's shifted planes must merge into one
#: run.  Below it the extra copy costs more than the longer runs save:
#: im2col alone at model shapes ran ~7% slower at 2×2 outputs, and from
#: even to 2× faster at 4×4 and larger.
MERGE_ROWS = 4


class ConvPlan:
    """Cached geometry + per-thread scratch for one conv problem shape."""

    __slots__ = ("grid", "out_spatial", "cols_shape", "mat_shape",
                 "positions", "padded_shape", "core_slices", "slabs",
                 "view_strides", "shift_shape", "shift_copies", "fill_shape",
                 "fill_strides", "_col2im_index", "hits", "_tls",
                 "scratch_bytes")

    def __init__(self, x_shape, w_shape, stride, padding, grid) -> None:
        self.grid = grid
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
        self.mat_shape = (batch, in_ch * int(np.prod(kernel)),
                          self.positions)
        padded_spatial = tuple(s + 2 * p for s, p in zip(spatial, padding))
        self.padded_shape = (batch, in_ch, *padded_spatial)
        self.core_slices = (slice(None), slice(None)) + tuple(
            slice(p, p + s) for p, s in zip(padding, spatial))
        # Dense im2col: a window view over the padded input, kernel axes
        # ahead of position axes, positions stepped by ``stride``.
        elem = _contiguous_strides(self.padded_shape)
        self.view_strides = elem[:2] + elem[2:] + tuple(
            s * step for s, step in zip(elem[2:], stride))
        self.slabs = [
            (offset, (slice(None), slice(None)) + tuple(
                slice(o, o + size * step, step)
                for o, size, step in zip(offset, self.out_spatial, stride)))
            for offset in np.ndindex(*kernel)
        ]
        self.shift_shape, self.shift_copies = None, []
        self.fill_shape, self.fill_strides = self.cols_shape, self.view_strides
        out_h, out_w = self.out_spatial[-2:]
        if grid and kernel[-1] > 1 and out_h >= MERGE_ROWS:
            # Column-shifted planes: shifted[b, c, j, ..., h, w] =
            # padded[b, c, ..., h, w + j] for w < ow.  Their rows are ow
            # wide, so an offset's (oh, ow) window is one contiguous run.
            # Each plane is staged straight from x: one copy of its
            # in-bounds rectangle; the padding cells stay zero.
            self.shift_shape = (batch, in_ch, kernel[-1],
                                *padded_spatial[:-1], out_w)
            lead = self.core_slices[:-1]
            pad_w, width = padding[-1], spatial[-1]
            for j in range(kernel[-1]):
                lo, hi = max(0, pad_w - j), min(out_w, width + pad_w - j)
                if lo < hi:
                    self.shift_copies.append((
                        lead[:2] + (j,) + lead[2:] + (slice(lo, hi),),
                        (Ellipsis, slice(lo + j - pad_w, hi + j - pad_w))))
            shift = _contiguous_strides(self.shift_shape)
            self.fill_shape = (batch, in_ch, *kernel,
                               *self.out_spatial[:-2], out_h * out_w)
            self.fill_strides = (shift[:2] + shift[3:-1] + (shift[2],)
                                 + shift[3:-2] + (1,))
        self._col2im_index = None
        self.hits = 0
        # Scratch is per *thread*: the serving worker pool (and the
        # churn stress harness) run inference convs of the same shape
        # concurrently, and a plan-wide buffer would let one thread's
        # im2col fill tear another's mid-GEMM.
        self._tls = threading.local()
        self.scratch_bytes = 0

    def im2col(self) -> "Im2col":
        """This thread's staging buffers and views."""
        stage = getattr(self._tls, "im2col", None)
        if stage is None:
            stage = self._tls.im2col = Im2col(self)
            self.scratch_bytes += stage.nbytes
        return stage

    def cols_buffer(self) -> np.ndarray:
        """This thread's reusable ``(B, C·K, P)`` scratch matrix."""
        scratch = getattr(self._tls, "cols", None)
        if scratch is None:
            scratch = self._tls.cols = np.empty(self.mat_shape)
            self.scratch_bytes += scratch.nbytes
        return scratch

    def col2im_index(self) -> np.ndarray:
        """Flat padded-input index of every ``cols`` element, in order.

        Read-only and shared by every thread (two threads racing to
        build it build the same array).
        """
        if self._col2im_index is None:
            positions = np.arange(int(np.prod(self.padded_shape)))
            index = np.empty(self.cols_shape, dtype=positions.dtype)
            np.copyto(index, _view(positions, self.cols_shape,
                                   self.view_strides))
            index = index.reshape(-1)
            index.setflags(write=False)
            self._col2im_index = index
        return self._col2im_index


class Im2col:
    """Staging buffers and pre-built views filling one plan's ``cols``.

    Calling it stages ``x`` — into the zero-padded input, or for a grid
    plan straight into the column-shifted planes (padding cells are
    zeroed once and never written) — then fills ``cols`` with one copy
    from a window view.  Every view is built here, once.
    """

    __slots__ = ("stage", "windows", "nbytes")

    def __init__(self, plan: ConvPlan) -> None:
        if plan.shift_shape is None:
            source = np.zeros(plan.padded_shape)
            self.stage = [(source[plan.core_slices], Ellipsis)]
        else:
            source = np.zeros(plan.shift_shape)
            self.stage = [(source[dst], src)
                          for dst, src in plan.shift_copies]
        self.nbytes = source.nbytes
        self.windows = _view(source, plan.fill_shape, plan.fill_strides)

    def __call__(self, x: np.ndarray, cols: np.ndarray) -> None:
        for dst, src in self.stage:
            np.copyto(dst, x[src])
        np.copyto(cols.reshape(self.windows.shape), self.windows)


#: LRU bound shared by this plan cache and the jit trace cache.
MAX_PLANS = 64
_plans: OrderedDict[tuple, ConvPlan] = OrderedDict()
_plan_misses = 0


def get_plan(x_shape, w_shape, stride, padding,
             weight_grad: bool = False) -> ConvPlan:
    """Fetch (or build) the plan for one problem, LRU-bounded.

    The geometry follows from the problem: grid for stride 1 when the
    weight records no gradient, dense otherwise.
    """
    global _plan_misses
    grid = not weight_grad and all(step == 1 for step in stride)
    key = (x_shape, w_shape, stride, padding, grid)
    plan = _plans.get(key)
    if plan is None:
        plan = ConvPlan(x_shape, w_shape, stride, padding, grid)
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
def conv_forward(x: np.ndarray, weight: np.ndarray, stride, padding,
                 weight_grad: bool = False):
    """GEMM forward; returns ``(out, cols, plan)``.

    ``cols`` is the ``(B, C·K, P)`` im2col matrix ``grad_w`` needs, kept
    only when ``weight_grad``; otherwise the fill goes to the thread's
    scratch and ``cols`` is ``None``.
    """
    plan = get_plan(x.shape, weight.shape, stride, padding, weight_grad)
    cols = np.empty(plan.mat_shape) if weight_grad else plan.cols_buffer()
    plan.im2col()(x, cols)
    out = np.matmul(weight.reshape(weight.shape[0], -1), cols)
    out = out.reshape(x.shape[0], weight.shape[0], *plan.out_spatial)
    return out, (cols if weight_grad else None), plan


def conv_backward(grad: np.ndarray, cols: np.ndarray | None,
                  weight: np.ndarray, plan: ConvPlan,
                  need_grad_x: bool, need_grad_w: bool):
    """GEMM backward; returns ``(grad_x, grad_w)`` (``None`` when unneeded)."""
    batch, out_ch = grad.shape[0], weight.shape[0]
    grad_mat = grad.reshape(batch, out_ch, plan.positions)
    grad_w = None
    if need_grad_w:
        grad_w = np.tensordot(grad_mat, cols,
                              axes=([0, 2], [0, 2])).reshape(weight.shape)
    grad_x = None
    if need_grad_x:
        w2t = weight.reshape(out_ch, -1).T
        if plan.grid:
            # gcols goes to the thread's cols scratch: a grid conv's
            # backward never reads the forward's cols.
            gcols = np.matmul(w2t, grad_mat, out=plan.cols_buffer())
            grad_padded = np.bincount(
                plan.col2im_index(), weights=gcols.reshape(-1),
                minlength=int(np.prod(plan.padded_shape)),
            ).reshape(plan.padded_shape)
        else:
            gcols = np.matmul(w2t, grad_mat).reshape(plan.cols_shape)
            grad_padded = np.zeros(plan.padded_shape)
            for offset, slab in plan.slabs:
                grad_padded[slab] += gcols[(slice(None), slice(None),
                                            *offset)]
        grad_x = grad_padded[plan.core_slices]
    return grad_x, grad_w


# ---------------------------------------------------------------------- #
# Trace replay (repro.nn.jit)
# ---------------------------------------------------------------------- #
def bind_replay(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                cols: np.ndarray | None, out_nd: np.ndarray,
                plan: ConvPlan):
    """Pre-bind one traced GEMM conv into a replay thunk.

    Everything shape-dependent — the plan's staging views, the reshaped
    GEMM operands — is resolved here, once; the returned zero-arg thunk
    recomputes ``out_nd`` in place from the *current* contents of ``x``,
    through the same :class:`Im2col` fill and GEMM as
    :func:`conv_forward`.  A ``cols`` that grad-mode backward closures
    captured (for ``grad_w``) is refreshed in place; otherwise the thunk
    fills the plan's scratch.  Staging and scratch belong to the tracing
    thread, the only one that replays the program.  Rank-agnostic: the
    same code serves conv2d and conv3d.
    """
    im2col = plan.im2col()
    if cols is None:
        cols = plan.cols_buffer()
    w2 = weight.reshape(weight.shape[0], -1)
    out_mat = out_nd.reshape(out_nd.shape[0], out_nd.shape[1], plan.positions)
    bias_r = None if bias is None else \
        bias.reshape((1, -1) + (1,) * (out_nd.ndim - 2))

    def run():
        im2col(x, cols)
        np.matmul(w2, cols, out=out_mat)
        if bias_r is not None:
            np.add(out_nd, bias_r, out=out_nd)

    return run
