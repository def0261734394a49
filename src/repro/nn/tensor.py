"""Reverse-mode automatic differentiation on numpy arrays.

The engine follows the classic dynamic-graph design: every operation on a
:class:`Tensor` records a backward closure and its parents; calling
:meth:`Tensor.backward` topologically sorts the graph and accumulates
gradients.  Broadcasting is fully supported — gradients are summed back to
the source shape by :func:`_unbroadcast`.

Only the features the reproduction needs are implemented, but those are
implemented completely (correct gradients under broadcasting, slicing,
reductions with/without axes, concatenation, stacking, clipping, etc.) and
are covered by gradient-check tests in ``tests/nn``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_ENABLED = True

# no_grad() nesting depth across ALL threads.  Serving worker pools run
# concurrent inference forwards; a naive save/restore would let one
# thread's exit re-enable grad mid-forward on another thread.  Grad
# comes back only when every open no_grad() block has exited.
_NO_GRAD_DEPTH = 0
_NO_GRAD_LOCK = threading.Lock()

# Profiling hook points (installed by repro.obs.profiler.OpProfiler).
# ``_MAKE_HOOK(op, data)`` fires on every op-result tensor construction;
# ``_BACKWARD_HOOK(op, seconds)`` fires after each node's backward closure.
# Both default to None so the uninstrumented hot path pays one global read.
_MAKE_HOOK: Callable[[str, np.ndarray], None] | None = None
_BACKWARD_HOOK: Callable[[str, float], None] | None = None


def set_autograd_hooks(
    make_hook: Callable[[str, np.ndarray], None] | None = None,
    backward_hook: Callable[[str, float], None] | None = None,
) -> None:
    """Install (or clear, with None) the op-level profiling hooks."""
    global _MAKE_HOOK, _BACKWARD_HOOK
    _MAKE_HOOK = make_hook
    _BACKWARD_HOOK = backward_hook


def get_autograd_hooks() -> tuple[
    Callable[[str, np.ndarray], None] | None,
    Callable[[str, float], None] | None,
]:
    """Return the currently-installed ``(make_hook, backward_hook)``."""
    return _MAKE_HOOK, _BACKWARD_HOOK


# Trace recorder (installed by repro.nn.jit while capturing a forward).
# While active, every op additionally registers a replay rule with the
# tracer: either a fusible in-place elementwise kernel, an opaque thunk
# recomputing the op's output buffer, or a view annotation.  The slot is
# per thread, so a trace records only the ops of the thread that traces
# while other threads run eager ops or replay concurrently; each site
# reads it once into a local.
class _TraceSlot(threading.local):
    recorder = None


_TRACE_SLOT = _TraceSlot()


def set_tracer(tracer) -> None:
    """Install (or clear, with None) this thread's trace recorder."""
    _TRACE_SLOT.recorder = tracer


def get_tracer():
    """Return the trace recorder active on this thread (or ``None``)."""
    return _TRACE_SLOT.recorder


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode).

    Depth-counted rather than save/restore so concurrent inference
    threads compose: grad re-enables only when the outermost block (on
    any thread) exits.  The lock is taken once per block, not per op.
    """
    global _GRAD_ENABLED, _NO_GRAD_DEPTH
    with _NO_GRAD_LOCK:
        _NO_GRAD_DEPTH += 1
        _GRAD_ENABLED = False
    try:
        yield
    finally:
        with _NO_GRAD_LOCK:
            _NO_GRAD_DEPTH -= 1
            if _NO_GRAD_DEPTH == 0:
                _GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _array_root(arr: np.ndarray) -> np.ndarray:
    """Follow ``.base`` to the array that owns the memory.

    ``reshape`` on a non-contiguous array returns a view of a fresh
    temporary copy, so ``.base is not None`` alone cannot distinguish
    "aliases the parent" from "copy of the parent" — the roots can.
    """
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=None) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.dtype == np.float64 and dtype is None:
        return arr
    return arr


# ---------------------------------------------------------------------- #
# In-place elementwise kernels used by trace replay (repro.nn.jit).
# Each mirrors the numpy expression of its eager op bit-for-bit, and each
# is alias-safe: ``out`` may alias any entry of ``srcs`` (the fusion pass
# relies on this to collapse a chain's intermediates into one buffer).
# ---------------------------------------------------------------------- #
def _ew_add(srcs, out):
    np.add(srcs[0], srcs[1], out=out)


def _ew_sub(srcs, out):
    np.subtract(srcs[0], srcs[1], out=out)


def _ew_mul(srcs, out):
    np.multiply(srcs[0], srcs[1], out=out)


def _ew_div(srcs, out):
    np.divide(srcs[0], srcs[1], out=out)


def _ew_exp(srcs, out):
    np.exp(srcs[0], out=out)


def _ew_log(srcs, out):
    np.log(srcs[0], out=out)


def _ew_sqrt(srcs, out):
    np.sqrt(srcs[0], out=out)


def _ew_abs(srcs, out):
    np.abs(srcs[0], out=out)


def _ew_relu(srcs, out):
    np.maximum(srcs[0], 0.0, out=out)


def _ew_tanh(srcs, out):
    np.tanh(srcs[0], out=out)


def _ew_sigmoid(srcs, out):
    # Staged so that every intermediate lands in ``out``; the sequence is
    # bitwise identical to ``1.0 / (1.0 + np.exp(-x))`` because IEEE-754
    # addition is commutative and each ufunc is evaluated in eager order.
    np.negative(srcs[0], out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``numpy.ndarray``.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op")

    # Make numpy defer binary ops to Tensor's reflected operators instead of
    # trying to broadcast the Tensor as a sequence.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, *, dtype=None) -> None:
        self.data = _as_array(data, dtype=dtype)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.op = "leaf"

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data)
        out.requires_grad = requires
        if requires:
            out._backward = backward
            out._parents = tuple(parents)
            out.op = op
        if _MAKE_HOOK is not None:
            _MAKE_HOOK(op, out.data)
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            # Coverage protocol: every op-result must be followed by a
            # record_*/poison call; an op with no replay rule poisons the
            # trace so replay can never silently skip a computation.
            tracer.expect(out, op)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (so a scalar loss needs no argument).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.broadcast_to(np.asarray(grad, dtype=self.data.dtype), self.shape)

        # Iterative topological sort (post-order DFS).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad)}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
            else:
                _dispatch_backward(node, node_grad, grads)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad, out=None):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(grad, other.shape),
            )

        return _binary(self, other, data, backward, "add", ew=_ew_add)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad, out=None):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return _binary(self, other, data, backward, "mul", ew=_ew_mul)

    __rmul__ = __mul__

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data - other.data

        def backward(grad, out=None):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(-grad, other.shape),
            )

        return _binary(self, other, data, backward, "sub", ew=_ew_sub)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad, out=None):
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data**2), other.shape),
            )

        return _binary(self, other, data, backward, "div", ew=_ew_div)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self * (-1.0)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        data = self.data**exponent

        def backward(grad, out=None):
            return (_unbroadcast(grad * exponent * self.data ** (exponent - 1), self.shape),)

        ew = None
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            def ew(srcs, out, exponent=exponent):
                np.power(srcs[0], exponent, out=out)
        return _unary(self, data, backward, "pow", ew=ew)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad, out=None):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                ga = grad * b
                gb = grad * a
            elif a.ndim == 1:
                ga = grad @ np.swapaxes(b, -1, -2)
                gb = np.outer(a, grad) if b.ndim == 2 else a[:, None] * grad[None, :]
            elif b.ndim == 1:
                ga = np.expand_dims(grad, -1) * b
                gb = np.swapaxes(a, -1, -2) @ grad
                gb = _unbroadcast(gb, b.shape)
            else:
                ga = grad @ np.swapaxes(b, -1, -2)
                gb = np.swapaxes(a, -1, -2) @ grad
                ga = _unbroadcast(ga, a.shape)
                gb = _unbroadcast(gb, b.shape)
            return ga, gb

        out = _binary(self, other, data, backward, "matmul")
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            a_arr, b_arr, buf = self.data, other.data, out.data
            if buf.ndim >= 2:
                run = lambda: np.matmul(a_arr, b_arr, out=buf)
            else:
                # Vector results: np.matmul's out= contract is awkward for
                # sub-2d outputs, so recompute and copy (rare in models).
                run = lambda: np.copyto(buf, a_arr @ b_arr)
            tracer.record(out, (self, other), run, op="matmul")
        return out

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad, out=None):
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, self.shape).astype(self.data.dtype, copy=False),)

        out = _unary(self, data, backward, "sum")
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            src, buf = self.data, out.data
            tracer.record(
                out, (self,),
                lambda: np.sum(src, axis=axis, keepdims=keepdims, out=buf),
                op="sum")
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad, out=None):
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask = mask / mask.sum(axis=axis, keepdims=True)
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            elif axis is None and not keepdims:
                g = np.broadcast_to(g, self.shape)
            return (mask * g,)

        out = _unary(self, data, backward, "max")
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            src, buf = self.data, out.data
            tracer.record(
                out, (self,),
                lambda: np.max(src, axis=axis, keepdims=keepdims, out=buf),
                op="max")
        return out

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad, out=None):
            return (grad.reshape(self.shape),)

        out = _unary(self, data, backward, "reshape")
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            if data is self.data or _array_root(data) is _array_root(self.data):
                tracer.record_view(out, self)
            else:
                # Non-contiguous source: numpy had to copy.  Replay as a
                # raveling copy into the retained output buffer.
                src = self.data
                dst = out.data.reshape(src.shape)
                tracer.record(out, (self,), lambda: np.copyto(dst, src),
                               op="reshape")
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad, out=None):
            return (grad.transpose(inverse),)

        out = _unary(self, data, backward, "transpose")
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            tracer.record_view(out, self)
        return out

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad, out=None):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        out = _unary(self, data, backward, "getitem")
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            if (isinstance(data, np.ndarray)
                    and _array_root(data) is _array_root(self.data)):
                tracer.record_view(out, self)
            else:
                # Advanced indexing (or a full-scalar index) copies.
                src, buf = self.data, out.data
                tracer.record(out, (self,),
                               lambda: np.copyto(buf, src[index]),
                               op="getitem")
        return out

    def expand_dims(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)

        def backward(grad, out=None):
            return (np.squeeze(grad, axis=axis),)

        out = _unary(self, data, backward, "expand_dims")
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            tracer.record_view(out, self)
        return out

    def squeeze(self, axis: int) -> "Tensor":
        data = np.squeeze(self.data, axis=axis)

        def backward(grad, out=None):
            return (np.expand_dims(grad, axis),)

        out = _unary(self, data, backward, "squeeze")
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            tracer.record_view(out, self)
        return out

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad; ``pad_width`` follows ``numpy.pad`` conventions."""
        data = np.pad(self.data, pad_width)

        def backward(grad, out=None):
            slices = tuple(
                slice(before, grad.shape[i] - after)
                for i, (before, after) in enumerate(pad_width)
            )
            return (grad[slices],)

        out = _unary(self, data, backward, "pad")
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            # np.pad always copies; the zero borders written at trace time
            # are never touched again, so replay only refreshes the core.
            src = self.data
            core = tuple(slice(before, before + dim)
                         for (before, _after), dim in zip(pad_width, src.shape))
            dst = out.data[core]
            tracer.record(out, (self,), lambda: np.copyto(dst, src), op="pad")
        return out

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad, out=None):
            return (grad * data,)

        return _unary(self, data, backward, "exp", ew=_ew_exp)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad, out=None):
            return (grad / self.data,)

        return _unary(self, data, backward, "log", ew=_ew_log)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad, out=None):
            return (grad * 0.5 / np.maximum(data, 1e-12),)

        return _unary(self, data, backward, "sqrt", ew=_ew_sqrt)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad, out=None):
            return (grad * np.sign(self.data),)

        return _unary(self, data, backward, "abs", ew=_ew_abs)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad, out=None):
            return (grad * (self.data > 0),)

        return _unary(self, data, backward, "relu", ew=_ew_relu)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad, out=None):
            return (grad * data * (1.0 - data),)

        return _unary(self, data, backward, "sigmoid", ew=_ew_sigmoid)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad, out=None):
            return (grad * (1.0 - data**2),)

        return _unary(self, data, backward, "tanh", ew=_ew_tanh)

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        """Clamp values; gradient is passed through inside the interval."""
        data = np.clip(self.data, low, high)

        def backward(grad, out=None):
            mask = np.ones_like(self.data, dtype=bool)
            if low is not None:
                mask &= self.data >= low
            if high is not None:
                mask &= self.data <= high
            return (grad * mask,)

        ew = None
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            def ew(srcs, out, low=low, high=high):
                np.clip(srcs[0], low, high, out=out)
        return _unary(self, data, backward, "clip", ew=ew)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad, out=None):
            dot = (grad * data).sum(axis=axis, keepdims=True)
            return (data * (grad - dot),)

        out = _unary(self, data, backward, "softmax")
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            src, buf = self.data, out.data

            def run():
                np.subtract(src, src.max(axis=axis, keepdims=True), out=buf)
                np.exp(buf, out=buf)
                buf /= buf.sum(axis=axis, keepdims=True)

            tracer.record(out, (self,), run, op="softmax")
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - log_sum
        softmax = np.exp(data)

        def backward(grad, out=None):
            return (grad - softmax * grad.sum(axis=axis, keepdims=True),)

        out = _unary(self, data, backward, "log_softmax")
        tracer = _TRACE_SLOT.recorder
        if tracer is not None:
            src, buf, sm = self.data, out.data, softmax

            def run():
                np.subtract(src, src.max(axis=axis, keepdims=True), out=buf)
                np.subtract(
                    buf, np.log(np.exp(buf).sum(axis=axis, keepdims=True)),
                    out=buf)
                # The backward closure captured ``softmax``; refresh it too.
                np.exp(buf, out=sm)

            tracer.record(out, (self,), run, op="log_softmax")
        return out

    # ------------------------------------------------------------------ #
    # Norms used throughout the paper
    # ------------------------------------------------------------------ #
    def l2_norm_squared(self) -> "Tensor":
        """Return ``||self||_2^2`` as a scalar tensor."""
        return (self * self).sum()

    def l2_norm(self, eps: float = 1e-12) -> "Tensor":
        """Return ``||self||_2`` as a scalar tensor (safe at zero)."""
        return (self.l2_norm_squared() + eps).sqrt()


# ---------------------------------------------------------------------- #
# Backward dispatch: ops store a closure returning parent grads
# ---------------------------------------------------------------------- #
def _dispatch_backward(node: Tensor, grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
    if _BACKWARD_HOOK is None:
        parent_grads = node._backward(grad)  # type: ignore[misc]
    else:
        start = time.perf_counter()
        parent_grads = node._backward(grad)  # type: ignore[misc]
        _BACKWARD_HOOK(node.op, time.perf_counter() - start)
    for parent, pgrad in zip(node._parents, parent_grads):
        if pgrad is None or not parent.requires_grad:
            continue
        pgrad = np.asarray(pgrad)
        if parent._backward is None:
            parent._accumulate(pgrad)
        else:
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pgrad
            else:
                grads[key] = pgrad


def _unary(parent: Tensor, data: np.ndarray, backward, op: str, ew=None) -> Tensor:
    out = Tensor._make(data, (parent,), backward, op)
    tracer = _TRACE_SLOT.recorder
    if tracer is not None and ew is not None:
        tracer.record_ew(out, (parent,), ew, op=op)
    return out


def _binary(a: Tensor, b: Tensor, data: np.ndarray, backward, op: str, ew=None) -> Tensor:
    out = Tensor._make(data, (a, b), backward, op)
    tracer = _TRACE_SLOT.recorder
    if tracer is not None and ew is not None:
        tracer.record_ew(out, (a, b), ew, op=op)
    return out


def make_op(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    """Public hook for defining fused ops (used by :mod:`repro.nn.functional`)."""
    return Tensor._make(data, parents, backward, op)


# ---------------------------------------------------------------------- #
# Free functions over multiple tensors
# ---------------------------------------------------------------------- #
def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad, out=None):
        pieces = []
        for i in range(len(tensors)):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(index)])
        return tuple(pieces)

    out = Tensor._make(data, tensors, backward, "concat")
    tracer = _TRACE_SLOT.recorder
    if tracer is not None:
        arrays = tuple(t.data for t in tensors)
        buf = out.data
        tracer.record(out, tensors,
                       lambda: np.concatenate(arrays, axis=axis, out=buf),
                       op="concat")
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad, out=None):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    out = Tensor._make(data, tensors, backward, "stack")
    tracer = _TRACE_SLOT.recorder
    if tracer is not None:
        arrays = tuple(t.data for t in tensors)
        buf = out.data
        tracer.record(out, tensors,
                       lambda: np.stack(arrays, axis=axis, out=buf),
                       op="stack")
    return out


def _where(condition: np.ndarray, a: Tensor, b: Tensor, refresh=None) -> Tensor:
    """Shared select core.  ``refresh(x, y, out=condition)`` recomputes the
    condition from the operands during replay; without it the condition is
    an external input the trace cannot reproduce, so tracing poisons."""
    data = np.where(condition, a.data, b.data)

    def backward(grad, out=None):
        return (
            _unbroadcast(grad * condition, a.shape),
            _unbroadcast(grad * ~condition, b.shape),
        )

    out = Tensor._make(data, (a, b), backward, "where")
    tracer = _TRACE_SLOT.recorder
    if tracer is not None:
        if refresh is None:
            tracer.poison("where: condition is an external array")
        else:
            a_arr, b_arr, buf = a.data, b.data, out.data

            def run():
                refresh(a_arr, b_arr, out=condition)
                # Bit-identical to np.where: fill with b, overwrite the
                # selected entries with a (copyto broadcasts both sides).
                np.copyto(buf, b_arr)
                np.copyto(buf, np.broadcast_to(a_arr, buf.shape),
                          where=condition)

            tracer.record(out, (a, b), run, op="where")
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select: ``condition`` is a plain boolean array."""
    return _where(np.asarray(condition), a, b)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise maximum (ties send gradient to ``a``)."""
    return _where(a.data >= b.data, a, b, refresh=np.greater_equal)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise minimum (ties send gradient to ``a``)."""
    return _where(a.data <= b.data, a, b, refresh=np.less_equal)
