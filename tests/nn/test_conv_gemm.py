"""The im2col GEMM convs against the strided-einsum qa reference."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.perf import clear_plan_cache, plan_cache_info
from repro.qa import reference


@pytest.fixture(autouse=True)
def empty_plan_cache():
    """An empty plan cache around each test."""
    clear_plan_cache()
    yield
    clear_plan_cache()


def _run_conv(conv, x_data, w_data, b_data, stride, padding):
    """One forward + backward; returns (out, grad_x, grad_w, grad_b)."""
    x = Tensor(x_data.copy(), requires_grad=True)
    w = Tensor(w_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    out = conv(x, w, b, stride=stride, padding=padding)
    out.backward(np.cos(np.arange(out.data.size)).reshape(out.shape))
    return out.data, x.grad, w.grad, b.grad


CONV2D_CASES = [
    # (B, C, H, W), (F, C, kh, kw), stride, padding
    ((1, 3, 12, 12), (4, 3, 3, 3), 1, 0),
    ((2, 3, 12, 12), (4, 3, 3, 3), 2, 1),
    ((3, 2, 9, 7), (5, 2, 3, 2), (2, 1), (1, 2)),
    ((1, 1, 5, 5), (1, 1, 1, 1), 1, 0),
]

CONV3D_CASES = [
    # (B, C, T, H, W), (F, C, kt, kh, kw), stride, padding
    ((1, 3, 6, 12, 12), (2, 3, 3, 3, 3), 1, 1),
    ((2, 2, 6, 6, 6), (4, 2, 3, 3, 3), 2, 1),
    ((1, 2, 5, 7, 6), (3, 2, 2, 3, 2), (1, 2, 1), (0, 1, 1)),
]


class TestConv2dEquivalence:
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV2D_CASES)
    def test_forward_and_grads_match_einsum(self, rng, x_shape, w_shape,
                                            stride, padding):
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        expected = _run_conv(reference.conv2d, x, w, b, stride, padding)
        fast = _run_conv(F.conv2d, x, w, b, stride, padding)
        for ref, got in zip(expected, fast):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    def test_op_name_marks_dispatch(self, rng):
        # ``op`` is only recorded on grad-tracked outputs.
        x = Tensor(rng.normal(size=(1, 3, 12, 12)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        assert F.conv2d(x, w).op == "conv2d.gemm"
        assert reference.conv2d(x, w).op == "conv2d"


    def test_bad_shapes_rejected(self, rng):
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        with pytest.raises(ValueError, match="4-D"):
            F.conv2d(Tensor(rng.normal(size=(1, 3, 2, 12, 12))), w)
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv2d(Tensor(rng.normal(size=(1, 2, 12, 12))), w)


class TestConv3dEquivalence:
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CONV3D_CASES)
    def test_forward_and_grads_match_einsum(self, rng, x_shape, w_shape,
                                            stride, padding):
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        expected = _run_conv(reference.conv3d, x, w, b, stride, padding)
        fast = _run_conv(F.conv3d, x, w, b, stride, padding)
        for ref, got in zip(expected, fast):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)

    def test_no_bias_no_grad_inference(self, rng):
        from repro.nn import no_grad

        x = Tensor(rng.normal(size=(1, 2, 6, 6, 6)))
        w = Tensor(rng.normal(size=(4, 2, 3, 3, 3)))
        with no_grad():
            expected = reference.conv3d(x, w, stride=2, padding=1).data
            fast = F.conv3d(x, w, stride=2, padding=1).data
        np.testing.assert_allclose(fast, expected, rtol=1e-10, atol=1e-10)


class TestMicroConvs:
    """Every size runs GEMM, down to the convs the old size policy sent
    to einsum: a 1-element conv and the 512-element 1×1 stride-2
    shortcut of the ResNet victim."""

    @pytest.mark.parametrize("x_shape,w_shape,stride", [
        ((1, 1, 1, 1), (1, 1, 1, 1), 1),
        ((8, 4, 8, 8), (8, 4, 1, 1), 2),
    ], ids=["1-element", "512-element-shortcut"])
    def test_conv2d_runs_gemm_and_matches_reference(self, rng, x_shape,
                                                    w_shape, stride):
        self._check(rng, F.conv2d, reference.conv2d, "conv2d.gemm",
                    x_shape, w_shape, stride)

    @pytest.mark.parametrize("x_shape,w_shape,stride", [
        ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 1),
        ((8, 4, 2, 8, 8), (8, 4, 1, 1, 1), 2),
    ], ids=["1-element", "512-element-shortcut"])
    def test_conv3d_runs_gemm_and_matches_reference(self, rng, x_shape,
                                                    w_shape, stride):
        self._check(rng, F.conv3d, reference.conv3d, "conv3d.gemm",
                    x_shape, w_shape, stride)

    @staticmethod
    def _check(rng, conv, ref_conv, op, x_shape, w_shape, stride):
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        probe = conv(Tensor(x, requires_grad=True), Tensor(w), stride=stride)
        assert probe.op == op
        fast = _run_conv(conv, x, w, b, stride, 0)
        expected = _run_conv(ref_conv, x, w, b, stride, 0)
        for ref, got in zip(expected, fast):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)


class TestPlanCache:
    def test_repeat_shapes_hit(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 12, 12)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        F.conv2d(x, w)
        F.conv2d(x, w)
        info = plan_cache_info()
        assert info["size"] == 1
        assert info["misses"] == 1
        assert info["hits"] >= 1

    def test_inference_reuses_scratch(self, rng):
        from repro.nn import no_grad

        x = Tensor(rng.normal(size=(1, 3, 12, 12)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        with no_grad():
            first = F.conv2d(x, w).data.copy()
            second = F.conv2d(x, w).data
        np.testing.assert_array_equal(first, second)
        assert plan_cache_info()["scratch_bytes"] > 0

    def test_scratch_is_thread_local(self, rng):
        """Concurrent same-shape inference convs must not tear scratch.

        The serving worker pool runs embedding forwards of one shape on
        several threads at once; a plan-wide cols/padded buffer let one
        thread's im2col fill corrupt another's mid-GEMM (caught by the
        serving.pooled_vs_single oracle flaking).
        """
        import threading

        from repro.nn import no_grad

        x_data = rng.normal(size=(2, 3, 12, 12))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        inputs = [Tensor(x_data + offset) for offset in range(4)]
        with no_grad():
            expected = [F.conv2d(v, w, padding=(1, 1)).data.copy()
                        for v in inputs]

        rounds, errors = 25, []

        def worker(position):
            try:
                with no_grad():
                    for _ in range(rounds):
                        got = F.conv2d(inputs[position], w,
                                       padding=(1, 1)).data
                        np.testing.assert_array_equal(
                            got, expected[position])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(position,))
                   for position in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]

    def test_clear(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 12, 12)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        F.conv2d(x, w)
        clear_plan_cache()
        info = plan_cache_info()
        assert info == {"size": 0, "hits": 0, "misses": 0,
                        "scratch_bytes": 0, "cap": 64}

    def test_lru_cap_evicts_oldest_plans(self, rng, monkeypatch):
        from repro.obs import counter
        from repro.perf import gemm_conv

        monkeypatch.setattr(gemm_conv, "MAX_PLANS", 2)
        evictions = counter("perf.plan_cache.evictions")
        before = evictions.value
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        for size in (8, 10, 12, 14):
            F.conv2d(Tensor(rng.normal(size=(1, 3, size, size))), w)
        info = plan_cache_info()
        assert info["size"] <= 2
        assert info["cap"] == 2
        assert evictions.value - before == 2
