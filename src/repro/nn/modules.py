"""Layer/module system: a minimal ``nn.Module`` with the standard zoo.

Modules register parameters and submodules automatically through attribute
assignment, expose flat ``state_dict``/``load_state_dict`` for
serialization, and track a ``training`` flag used by BatchNorm and Dropout.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import (
    _TRACE_SLOT,
    Tensor,
    concatenate,
    get_tracer,
    is_grad_enabled,
    stack,
)
from repro.utils.seeding import seeded_rng

# Forward-dispatch profiling hook (installed by repro.obs.profiler).
# ``_CALL_HOOK(module_type, seconds)`` fires after every Module.__call__;
# container modules (Sequential, backbones) include their children's time.
# A trace-replayed forward (repro.nn.jit) fires it once per module call
# the trace recorded, in the same post-order.
_CALL_HOOK: Callable[[str, float], None] | None = None


def set_call_hook(hook: Callable[[str, float], None] | None) -> None:
    """Install (or clear, with None) the module-forward profiling hook."""
    global _CALL_HOOK
    _CALL_HOOK = hook


def get_call_hook() -> Callable[[str, float], None] | None:
    """Return the currently-installed forward hook."""
    return _CALL_HOOK


class Parameter(Tensor):
    """A tensor flagged as a learnable parameter."""

    __slots__ = ()

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses define ``forward``; parameters and submodules assigned as
    attributes are discovered automatically.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    # -------------------------------------------------------------- #
    # Registration
    # -------------------------------------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-learnable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # -------------------------------------------------------------- #
    # Traversal
    # -------------------------------------------------------------- #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """Return all learnable parameters of this module tree."""
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` pairs, depth first."""
        for name in self._buffers:
            yield f"{prefix}{name}", self._buffers[name]
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    # -------------------------------------------------------------- #
    # Mode / gradient management
    # -------------------------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects BatchNorm, Dropout)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def requires_grad_(self, flag: bool = True) -> "Module":
        """Freeze (``False``) or unfreeze (``True``) all parameters.

        Freezing lets the autograd engine skip weight-gradient work when a
        model is used only as a differentiable function of its *input* —
        the hot path of transfer-attack loops.
        """
        for param in self.parameters():
            param.requires_grad = flag
        return self

    # -------------------------------------------------------------- #
    # Serialization
    # -------------------------------------------------------------- #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat name → array mapping of parameters and buffers."""
        state = {name: param.data for name, param in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[f"buffer:{name}"] = buf
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (shapes must match)."""
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name.startswith("buffer:"):
                self._load_buffer(name[len("buffer:"):], value)
                continue
            if name not in params:
                raise KeyError(f"unexpected parameter {name!r}")
            if params[name].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{params[name].shape} vs {value.shape}"
                )
            params[name].data = np.asarray(value, dtype=params[name].dtype)

    def _load_buffer(self, dotted: str, value: np.ndarray) -> None:
        module: Module = self
        *path, leaf = dotted.split(".")
        for part in path:
            module = module._modules[part]
        module._set_buffer(leaf, value)

    # -------------------------------------------------------------- #
    # Calling
    # -------------------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        hook = _CALL_HOOK
        tracer = _TRACE_SLOT.recorder
        if hook is None and tracer is None:
            return self.forward(*args, **kwargs)
        first = 0 if tracer is None else len(tracer.steps)
        start = time.perf_counter()
        out = self.forward(*args, **kwargs)
        if hook is not None:
            hook(type(self).__name__, time.perf_counter() - start)
        if tracer is not None:
            tracer.record_span(type(self).__name__, first)
        return out


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class Identity(Module):
    """Pass-through module (useful as an optional stage placeholder)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine map ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng=None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), fan_in=in_features, rng=rng)
        )
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.transpose(1, 0)
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution layer."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, bias: bool = True, rng=None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        kh, kw = F._pair(kernel_size)
        fan_in = in_channels * kh * kw
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kh, kw), fan_in, rng=rng)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding)


class Conv3d(Module):
    """3-D convolution layer over ``(T, H, W)`` volumes."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, bias: bool = True, rng=None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        kt, kh, kw = F._triple(kernel_size)
        fan_in = in_channels * kt * kh * kw
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kt, kh, kw), fan_in, rng=rng)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv3d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding)


class BatchNorm(Module):
    """Batch normalization over the channel axis (axis 1) for any rank."""

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.constant((num_features,), 1.0))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self._axes_by_ndim: dict[int, tuple[tuple, tuple]] = {}

    def _stat_geometry(self, ndim: int) -> tuple[tuple, tuple]:
        cached = self._axes_by_ndim.get(ndim)
        if cached is None:
            cached = (
                tuple(i for i in range(ndim) if i != 1),
                tuple(self.num_features if i == 1 else 1 for i in range(ndim)),
            )
            self._axes_by_ndim[ndim] = cached
        return cached

    def forward(self, x: Tensor) -> Tensor:
        reduce_axes, stat_shape = self._stat_geometry(x.ndim)

        if self.training:
            tracer = get_tracer()
            if tracer is not None:
                # Training-mode batchnorm mutates running stats per call;
                # a replay would freeze them at their traced values.
                tracer.poison("batchnorm: training-mode running-stat update")
            mean = x.mean(axis=reduce_axes, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=reduce_axes, keepdims=True)
            m = self.momentum
            self._set_buffer(
                "running_mean",
                (1 - m) * self.running_mean + m * mean.data.reshape(-1),
            )
            self._set_buffer(
                "running_var",
                (1 - m) * self.running_var + m * var.data.reshape(-1),
            )
        else:
            if not is_grad_enabled() or not (
                x.requires_grad or self.weight.requires_grad
                or self.bias.requires_grad
            ):
                # Inference fast path: same op sequence as the Tensor-graph
                # branch below — (x − μ) · inv_std · w + b, elementwise in
                # that order — so the result is bit-identical, but run
                # in-place on one buffer instead of allocating four.
                inv = (self.running_var.reshape(stat_shape) + self.eps) ** -0.5
                out = x.data - self.running_mean.reshape(stat_shape)
                out *= inv
                out *= self.weight.data.reshape(stat_shape)
                out += self.bias.data.reshape(stat_shape)
                result = Tensor(out)
                tracer = get_tracer()
                if tracer is not None:
                    # This path bypasses Tensor._make, so register the
                    # whole affine transform as one fusible step and pin
                    # the running stats (a _set_buffer rebinds them).
                    tracer.guard_buffer(self, "running_mean")
                    tracer.guard_buffer(self, "running_var")
                    mean_r = self.running_mean.reshape(stat_shape)
                    w_r = self.weight.data.reshape(stat_shape)
                    b_r = self.bias.data.reshape(stat_shape)

                    def bn(srcs, o, mean_r=mean_r, inv=inv, w_r=w_r, b_r=b_r):
                        np.subtract(srcs[0], mean_r, out=o)
                        o *= inv
                        o *= w_r
                        o += b_r

                    tracer.record_ew(result, (x, self.weight, self.bias),
                                     bn, (x.data,), op="batchnorm")
                return result
            tracer = get_tracer()
            if tracer is not None:
                # The running stats enter the graph as view-wrapping leaf
                # tensors below; pin the underlying buffers by identity.
                tracer.guard_buffer(self, "running_mean")
                tracer.guard_buffer(self, "running_var")
            mean = Tensor(self.running_mean.reshape(stat_shape))
            centered = x - mean
            var = Tensor(self.running_var.reshape(stat_shape))

        inv_std = (var + self.eps) ** -0.5
        normalized = centered * inv_std
        scale = self.weight.reshape(stat_shape)
        shift = self.bias.reshape(stat_shape)
        return normalized * scale + shift


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.weight = Parameter(init.constant((num_features,), 1.0))
        self.bias = Parameter(init.zeros((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered * ((var + self.eps) ** -0.5)
        return normalized * self.weight + self.bias


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Logistic activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng=None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = seeded_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        tracer = get_tracer()
        if tracer is not None:
            # Each training call draws a fresh mask from the module rng;
            # replaying a fixed mask would change the random stream.
            tracer.poison("dropout: training-mode rng draw")
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * Tensor(mask)


class Flatten(Module):
    """Flatten all dimensions after the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class MaxPool3d(Module):
    """Max pooling module over ``(T, H, W)``."""

    def __init__(self, kernel_size, stride=None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool3d(x, self.kernel_size, self.stride)


class AvgPool3d(Module):
    """Average pooling module over ``(T, H, W)``."""

    def __init__(self, kernel_size, stride=None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool3d(x, self.kernel_size, self.stride)


class AdaptiveAvgPool3d(Module):
    """Global average pooling to a single cell per channel."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool3d(x)


class LSTMCell(Module):
    """Single-step LSTM cell with fused gate projection."""

    def __init__(self, input_size: int, hidden_size: int, rng=None) -> None:
        super().__init__()
        rng = seeded_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.input_proj = Linear(input_size, 4 * hidden_size, rng=rng)
        self.hidden_proj = Linear(hidden_size, 4 * hidden_size, bias=False, rng=rng)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        gates = self.input_proj(x) + self.hidden_proj(h_prev)
        hs = self.hidden_size
        i = gates[:, 0 * hs : 1 * hs].sigmoid()
        f = gates[:, 1 * hs : 2 * hs].sigmoid()
        g = gates[:, 2 * hs : 3 * hs].tanh()
        o = gates[:, 3 * hs : 4 * hs].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c


class LSTM(Module):
    """Unrolled single-layer LSTM over inputs of shape ``(B, T, D)``.

    Returns ``(outputs, (h_final, c_final))`` where ``outputs`` has shape
    ``(B, T, hidden_size)``.
    """

    def __init__(self, input_size: int, hidden_size: int, rng=None) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)

    def forward(self, x: Tensor) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        batch, steps, _ = x.shape
        h = Tensor(np.zeros((batch, self.hidden_size)))
        c = Tensor(np.zeros((batch, self.hidden_size)))
        outputs = []
        for t in range(steps):
            h, c = self.cell(x[:, t], (h, c))
            outputs.append(h)
        return stack(outputs, axis=1), (h, c)
