"""Extended numeric gradient coverage for the layers the original
gradcheck suite skimmed over: conv3d with asymmetric stride/padding (the
GEMM conv and the qa einsum reference), multi-step LSTM sequences, BatchNorm in
training mode, and the slab-wise max_pool3d backward."""

import numpy as np
import pytest

from repro.nn import BatchNorm, LSTM, MaxPool3d, Tensor
from repro.nn import functional as F
from repro.perf import clear_plan_cache
from repro.qa import reference

from .gradcheck import assert_gradients_close, assert_parameter_gradients_close


@pytest.fixture(autouse=True)
def empty_plan_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


# ---------------------------------------------------------------------- #
# conv3d with asymmetric stride / padding
# ---------------------------------------------------------------------- #
#: ``impl`` → conv3d: the production GEMM path and the qa einsum reference.
CONV3D_IMPLS = {"einsum": reference.conv3d, "gemm": F.conv3d}

ASYMMETRIC_CASES = [
    # (B, C, T, H, W), (F, C, kt, kh, kw), stride, padding
    ((1, 2, 5, 7, 6), (3, 2, 2, 3, 2), (1, 2, 1), (1, 0, 1)),
    ((2, 1, 4, 5, 5), (2, 1, 3, 2, 3), (2, 1, 2), (0, 1, 2)),
    ((1, 2, 6, 4, 5), (2, 2, 2, 2, 2), (3, 2, 1), (2, 1, 0)),
]


@pytest.mark.parametrize("impl", ["einsum", "gemm"])
@pytest.mark.parametrize("x_shape,w_shape,stride,padding", ASYMMETRIC_CASES)
def test_conv3d_asymmetric_stride_padding(impl, x_shape, w_shape,
                                          stride, padding):
    conv3d = CONV3D_IMPLS[impl]
    rng = np.random.default_rng(3)
    arrays = {
        "x": rng.normal(size=x_shape),
        "w": rng.normal(size=w_shape) / np.prod(w_shape[1:]),
        "b": rng.normal(size=(w_shape[0],)),
    }

    def build_loss(t):
        out = conv3d(t["x"], t["w"], t["b"], stride=stride,
                     padding=padding)
        return (out * out).sum()

    assert_gradients_close(build_loss, arrays, rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("x_shape,w_shape,padding", [
    ((1, 2, 3, 5, 7), (3, 2, 3, 3, 3), (1, 1, 1)),
    ((2, 1, 4, 5, 5), (2, 1, 1, 3, 3), (0, 2, 2)),
    ((1, 2, 3, 4, 5), (2, 2, 2, 1, 2), (1, 0, 0)),
])
def test_conv3d_grid_input_gradient(x_shape, w_shape, padding):
    """Stride 1 with a constant weight: the grid geometry's bincount
    col2im."""
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(size=w_shape) / np.prod(w_shape[1:]))
    b = Tensor(rng.normal(size=(w_shape[0],)))

    def build_loss(t):
        out = F.conv3d(t["x"], w, b, padding=padding)
        return (out * out).sum()

    assert_gradients_close(build_loss, {"x": rng.normal(size=x_shape)},
                           rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------- #
# LSTM over multi-step sequences
# ---------------------------------------------------------------------- #
def test_lstm_sequence_input_gradient():
    lstm = LSTM(3, 4, rng=np.random.default_rng(5))
    rng = np.random.default_rng(7)
    arrays = {"x": rng.normal(size=(2, 5, 3))}

    def build_loss(t):
        outputs, (h, c) = lstm(t["x"])
        # Touch every timestep *and* the final states, so the gradient
        # flows through the full unrolled recurrence.
        return (outputs * outputs).sum() + (h * c).sum()

    assert_gradients_close(build_loss, arrays, rtol=1e-4, atol=1e-6)


def test_lstm_sequence_parameter_gradients():
    lstm = LSTM(2, 3, rng=np.random.default_rng(11))
    x = Tensor(np.random.default_rng(13).normal(size=(2, 4, 2)))

    def forward():
        outputs, _ = lstm(x)
        return (outputs * outputs).sum()

    assert_parameter_gradients_close(lstm, forward, rtol=1e-4, atol=1e-6)


# ---------------------------------------------------------------------- #
# BatchNorm in training mode (batch statistics on the graph)
# ---------------------------------------------------------------------- #
def test_batchnorm_training_input_gradient():
    norm = BatchNorm(3)
    norm.train()
    rng = np.random.default_rng(17)
    arrays = {"x": rng.normal(size=(4, 3, 5))}
    mix = rng.normal(size=(4, 3, 5))

    def build_loss(t):
        # An asymmetric readout: a plain sum has zero gradient through
        # normalized activations (they sum to zero by construction).
        return (norm(t["x"]) * mix).sum()

    assert_gradients_close(build_loss, arrays, rtol=1e-4, atol=1e-6)


def test_batchnorm_training_parameter_gradients():
    norm = BatchNorm(2)
    norm.train()
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(size=(3, 2, 4)))
    mix = rng.normal(size=(3, 2, 4))

    def forward():
        return (norm(x) * mix).sum()

    assert_parameter_gradients_close(norm, forward, rtol=1e-4, atol=1e-6)


def test_batchnorm_training_uses_batch_stats():
    # Training-mode output is a function of the batch alone; the running
    # buffers must not leak into it (they only feed eval mode).
    norm = BatchNorm(2)
    norm.train()
    x = Tensor(np.random.default_rng(23).normal(size=(4, 2, 3)))
    first = norm(x).data.copy()
    norm._set_buffer("running_mean", np.full(2, 100.0))
    norm._set_buffer("running_var", np.full(2, 100.0))
    np.testing.assert_array_equal(norm(x).data, first)


# ---------------------------------------------------------------------- #
# max_pool3d backward (slab-wise gradient routing)
# ---------------------------------------------------------------------- #
def _tie_free_volume(shape, seed):
    """Distinct, well-separated values: argmax is stable under ±eps."""
    rng = np.random.default_rng(seed)
    values = np.arange(np.prod(shape), dtype=float)
    rng.shuffle(values)
    return values.reshape(shape)


@pytest.mark.parametrize("kernel,stride", [(2, None), (2, 2), ((2, 2, 1), (1, 2, 2)), (3, 2)])
def test_max_pool3d_backward(kernel, stride):
    pool = MaxPool3d(kernel, stride=stride)
    arrays = {"x": _tie_free_volume((2, 2, 4, 4, 4), seed=29)}
    mix = np.random.default_rng(31).normal(size=pool(
        Tensor(arrays["x"])).shape)

    def build_loss(t):
        return (pool(t["x"]) * mix).sum()

    assert_gradients_close(build_loss, arrays, rtol=1e-4, atol=1e-6)


def test_max_pool3d_routes_gradient_to_argmax_only():
    x = Tensor(_tie_free_volume((1, 1, 2, 2, 2), seed=37),
               requires_grad=True)
    out = F.max_pool3d(x, 2)
    out.sum().backward()
    assert x.grad.sum() == 1.0
    assert np.count_nonzero(x.grad) == 1
    assert x.grad.reshape(-1)[np.argmax(x.data)] == 1.0
