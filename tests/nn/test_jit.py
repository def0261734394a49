"""Tests for the trace-and-fuse execution layer (``repro.nn.jit``).

The contract under test: replaying a recorded schedule is *bit-identical*
to eager execution (outputs and gradients), and every situation where
that cannot be guaranteed — an installed op-level hook, rebound
parameters or buffers, training-mode randomness, externally-conditioned
selects — falls back to eager or retraces, visibly on the obs counters.
Replays also feed an installed module call hook, and threads replay one
compiled module concurrently, each from its own program.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.nn import (
    BatchNorm,
    Dropout,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tensor,
    no_grad,
)
from repro.nn import jit
from repro.nn import modules as nn_modules
from repro.nn import tensor as nn_tensor
from repro.obs import OpProfiler, counter
from repro.perf import gemm_conv
from repro.qa import BarrierHarness
from repro.qa.world import tiny_extractor


def _mlp(seed: int = 0) -> Sequential:
    rng = np.random.default_rng(seed)
    model = Sequential(Linear(6, 8, rng=rng), ReLU(), Linear(8, 4, rng=rng))
    model.eval()
    for param in model.parameters():
        param.requires_grad = False
    return model


def _bn_model(seed: int = 0) -> Sequential:
    rng = np.random.default_rng(seed)
    model = Sequential(Linear(6, 8, rng=rng), BatchNorm(8), ReLU())
    model.eval()
    for param in model.parameters():
        param.requires_grad = False
    return model


def _inputs(count: int, shape=(3, 6), seed: int = 7):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for _ in range(count)]


class TestInferenceReplay:
    def test_replay_is_bit_identical_across_inputs(self):
        model = _mlp()
        compiled = jit.compile(model)
        with no_grad():
            for x in _inputs(4):
                eager = model(Tensor(x)).data
                replayed = compiled(Tensor(x)).data
                np.testing.assert_array_equal(eager, replayed)

    def test_one_trace_per_signature(self):
        model = _mlp()
        compiled = jit.compile(model)
        replays = counter("nn.jit.replays")
        misses = counter("nn.jit.trace_misses")
        with no_grad():
            before_miss = misses.value
            for x in _inputs(3):
                compiled(Tensor(x))
            assert misses.value - before_miss == 1
            assert compiled.traces == 1
            before_replay = replays.value
            compiled(Tensor(_inputs(1)[0]))
            assert replays.value - before_replay == 1
            # A new shape is a new signature → second trace.
            compiled(Tensor(_inputs(1, shape=(5, 6))[0]))
            assert compiled.traces == 2

    def test_fused_matches_unfused_and_saves_buffers(self):
        fused = jit.compile(_mlp(), fuse=True)
        unfused = jit.compile(_mlp(), fuse=False)
        with no_grad():
            for x in _inputs(3):
                np.testing.assert_array_equal(fused(Tensor(x)).data,
                                              unfused(Tensor(x)).data)
        assert fused.stats()["fused_steps"] > 0
        assert fused.stats()["bytes_saved"] > 0
        assert fused.stats()["slots"] < unfused.stats()["slots"]

    def test_compile_is_idempotent(self):
        compiled = jit.compile(_mlp())
        assert jit.compile(compiled) is compiled


class TestFallbacks:
    def test_installed_profiler_forces_eager(self):
        model = _mlp()
        compiled = jit.compile(model)
        fallbacks = counter("nn.jit.fallbacks", reason="hooks")
        x = _inputs(1)[0]
        with no_grad():
            compiled(Tensor(x))  # trace while unhooked
            before = fallbacks.value
            with OpProfiler() as prof:
                out = compiled(Tensor(x))
            assert fallbacks.value - before == 1
            # The profiler saw the eager ops — nothing was skimmed past it.
            assert prof.ops["matmul"]["count"] >= 2
            np.testing.assert_array_equal(out.data, model(Tensor(x)).data)

    def test_nested_compiled_module_records_into_outer_trace(self):
        inner = jit.compile(_mlp(seed=3))

        class Outer(Module):
            def forward(self, x):
                return inner(x) * 2.0

        outer_model = Outer()
        outer = jit.compile(outer_model)
        nested = counter("nn.jit.fallbacks", reason="nested_trace")
        x, y = _inputs(2)
        with no_grad():
            before = nested.value
            outer(Tensor(x))  # trace: inner must decline to replay
            assert nested.value - before == 1
            np.testing.assert_array_equal(outer(Tensor(y)).data,
                                          outer_model(Tensor(y)).data)

    def test_training_dropout_poisons_and_stays_eager(self):
        rng = np.random.default_rng(0)
        model = Sequential(Linear(6, 8, rng=rng), Dropout(0.5, rng=1))
        model.train()
        for param in model.parameters():
            param.requires_grad = False
        compiled = jit.compile(model)
        poisoned = counter("nn.jit.poisoned")
        fallbacks = counter("nn.jit.fallbacks", reason="poisoned")
        x = _inputs(1)[0]
        with no_grad():
            before_p = poisoned.value
            compiled(Tensor(x))
            assert poisoned.value - before_p == 1
            assert compiled.stats()["poisoned"] == 1
            before_f = fallbacks.value
            a = compiled(Tensor(x))
            b = compiled(Tensor(x))
            assert fallbacks.value - before_f == 2
            # Still eager: each call draws a fresh dropout mask.
            assert not np.array_equal(a.data, b.data)

    def test_external_where_condition_poisons(self):
        class Select(Module):
            def forward(self, x):
                return nn_tensor.where(np.zeros((3, 6), dtype=bool),
                                       x, x * 2.0)

        compiled = jit.compile(Select())
        x = _inputs(1)[0]
        with no_grad():
            out = compiled(Tensor(x))
            np.testing.assert_array_equal(out.data, 2.0 * x)
        assert compiled.stats()["poisoned"] == 1

    def test_traced_maximum_replays(self):
        class Clamp(Module):
            def forward(self, x):
                return nn_tensor.maximum(x, x * 0.5)

        model = Clamp()
        compiled = jit.compile(model)
        with no_grad():
            for x in _inputs(3, seed=23):
                np.testing.assert_array_equal(compiled(Tensor(x)).data,
                                              model(Tensor(x)).data)
        assert compiled.stats()["poisoned"] == 0


class TestGuards:
    def test_load_state_dict_retraces(self):
        model = _mlp()
        compiled = jit.compile(model)
        retraces = counter("nn.jit.retraces")
        x = _inputs(1)[0]
        with no_grad():
            compiled(Tensor(x))
            state = {name: value * 1.5
                     for name, value in model.state_dict().items()}
            model.load_state_dict(state)
            before = retraces.value
            out = compiled(Tensor(x))
            assert retraces.value - before == 1
            np.testing.assert_array_equal(out.data, model(Tensor(x)).data)

    def test_batchnorm_buffer_rebind_retraces(self):
        model = _bn_model()
        compiled = jit.compile(model)
        retraces = counter("nn.jit.retraces")
        x = _inputs(1)[0]
        with no_grad():
            compiled(Tensor(x))
            bn = model.layers[1] if hasattr(model, "layers") else None
            bn = bn or next(m for m in model.modules()
                            if isinstance(m, BatchNorm))
            bn._set_buffer("running_mean",
                           bn.running_mean + 0.25)
            before = retraces.value
            out = compiled(Tensor(x))
            assert retraces.value - before == 1
            np.testing.assert_array_equal(out.data, model(Tensor(x)).data)


class TestGradMode:
    def test_gradients_are_bit_identical(self):
        model = _mlp()
        for param in model.parameters():
            param.requires_grad = True
        compiled = jit.compile(model)
        for x in _inputs(3, seed=31):
            for param in model.parameters():
                param.grad = None
            xt = Tensor(x, requires_grad=True)
            out = model(xt)
            out.backward(np.ones_like(out.data))
            eager_out, eager_xg = out.data.copy(), xt.grad.copy()
            eager_pg = [param.grad.copy() for param in model.parameters()]

            for param in model.parameters():
                param.grad = None
            xt = Tensor(x, requires_grad=True)
            out = compiled(xt)
            out.backward(np.ones_like(out.data))
            np.testing.assert_array_equal(eager_out, out.data)
            np.testing.assert_array_equal(eager_xg, xt.grad)
            for expected, param in zip(eager_pg, model.parameters()):
                np.testing.assert_array_equal(expected, param.grad)

    def test_backward_through_stale_replay_raises(self):
        model = _mlp()
        for param in model.parameters():
            param.requires_grad = True
        compiled = jit.compile(model)
        x, y = _inputs(2, seed=37)
        first = compiled(Tensor(x, requires_grad=True))
        second = compiled(Tensor(y, requires_grad=True))
        # The second replay overwrote the arena; the first output's tape
        # no longer matches its buffers.
        with pytest.raises(RuntimeError, match="stale replay"):
            first.backward(np.ones_like(first.data))
        second.backward(np.ones_like(second.data))  # fresh one still works


class TestTraceCache:
    def test_lru_cap_and_eviction_counter(self, monkeypatch):
        monkeypatch.setattr(gemm_conv, "MAX_PLANS", 2)
        model = _mlp()
        compiled = jit.compile(model)
        evictions = counter("nn.jit.trace_cache.evictions")
        before = evictions.value
        with no_grad():
            for batch in (1, 2, 3, 4):
                compiled(Tensor(_inputs(1, shape=(batch, 6))[0]))
        assert compiled.traces <= 2
        assert evictions.value - before == 2

    def test_clear_trace_caches(self):
        compiled = jit.compile(_mlp())
        with no_grad():
            compiled(Tensor(_inputs(1)[0]))
        assert compiled.traces == 1
        jit.clear_trace_caches()
        assert compiled.traces == 0

    def test_trace_cache_info_aggregates(self):
        compiled = jit.compile(_mlp())
        with no_grad():
            compiled(Tensor(_inputs(1)[0]))
        info = jit.trace_cache_info()
        assert info["traces"] >= 1
        assert info["arena_bytes"] >= compiled.stats()["arena_bytes"]


def _hooked_calls(run, x):
    """``[(module type, seconds)]`` one forward reports to a call hook."""
    calls = []
    previous = nn_modules.get_call_hook()
    nn_modules.set_call_hook(lambda name, seconds: calls.append(
        (name, seconds)))
    try:
        with no_grad():
            out = run(Tensor(x)).data
    finally:
        nn_modules.set_call_hook(previous)
    return out, calls


class TestModuleHookReplay:
    def test_replay_reports_the_eager_module_calls(self):
        model = tiny_extractor(5)
        compiled = jit.compile(model)
        x = np.random.default_rng(3).standard_normal((2, 3, 2, 8, 8))
        with no_grad():
            compiled(Tensor(x))  # trace while unhooked
        replays = counter("nn.jit.replays")
        fallbacks = counter("nn.jit.fallbacks", reason="hooks")
        before = (replays.value, fallbacks.value)
        replayed, replay_calls = _hooked_calls(compiled, x)
        # The module hook alone keeps replay on, and never counts a
        # fallback; only the op-level make-hook does.
        assert (replays.value, fallbacks.value) == (before[0] + 1, before[1])
        eager, eager_calls = _hooked_calls(model, x)
        np.testing.assert_array_equal(replayed, eager)
        names = [name for name, _ in replay_calls]
        assert Counter(names) == Counter(name for name, _ in eager_calls)
        assert names == [name for name, _ in eager_calls]  # post-order
        assert {"Conv2d", "BatchNorm", "LSTM", "Linear"} <= set(names)
        # Containers stay inclusive: the model (reported last) spans the
        # whole replay, so it is charged at least as much as any module.
        assert names[-1] == type(model).__name__
        assert all(seconds <= replay_calls[-1][1]
                   for _, seconds in replay_calls)
        assert sum(seconds for name, seconds in replay_calls
                   if name == "Conv2d") > 0

    def test_fused_chain_is_charged_to_the_module_that_starts_it(self):
        model = _bn_model()  # Linear → BatchNorm → ReLU
        compiled = jit.compile(model)
        x = _inputs(1)[0]
        with no_grad():
            compiled(Tensor(x))
        assert compiled.stats()["fused_steps"] > 0
        _, calls = _hooked_calls(compiled, x)
        seconds = dict(calls)
        assert [name for name, _ in calls] == \
            ["Linear", "BatchNorm", "ReLU", "Sequential"]
        # ReLU's step runs inside the chain an earlier module started.
        assert seconds["ReLU"] == 0.0
        children = seconds["Linear"] + seconds["BatchNorm"] + seconds["ReLU"]
        assert seconds["Sequential"] == pytest.approx(children, abs=1e-12)


class TestThreadedReplay:
    def test_free_running_threads_replay_one_signature(self):
        model = tiny_extractor(7)
        compiled = jit.compile(model)
        rng = np.random.default_rng(11)
        inputs = [rng.standard_normal((2, 3, 2, 8, 8)) for _ in range(4)]
        with no_grad():
            expected = [model(Tensor(x)).data for x in inputs]

        def worker(thread_id, step, rng):
            index = int(rng.integers(len(inputs)))
            with no_grad():
                return index, compiled(Tensor(inputs[index])).data

        threads, steps = 4, 5
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcome = BarrierHarness(threads, steps, seed=3).run_free(worker)
        finally:
            sys.setswitchinterval(previous)
        assert len(outcome.results) == threads * steps
        for index, out in outcome.results.values():
            np.testing.assert_array_equal(out, expected[index])
        # One program per thread: each replays its own arena.
        assert compiled.traces == threads

    def test_eager_ops_run_while_other_threads_trace(self):
        # Two threads trace a fresh compiled module every step while two
        # others run eager Tensor ops: the recorder slot is per thread,
        # so no eager op reaches a trace and no eager op sees a recorder.
        model = tiny_extractor(7)
        mlp = _mlp(5)
        x = np.random.default_rng(11).standard_normal((2, 3, 2, 8, 8))
        rows = _inputs(3, shape=(4, 6), seed=9)
        solo = jit.CompiledModule(model)
        with no_grad():
            expected = model(Tensor(x)).data
            expected_rows = [mlp(Tensor(v)).data for v in rows]
            solo(Tensor(x))
        solo_ops = solo.stats()["ops"]

        def worker(thread_id, step, rng):
            with no_grad():
                if thread_id < 2:
                    compiled = jit.CompiledModule(model)
                    out = compiled(Tensor(x)).data
                    return "trace", out, compiled.stats()
                index = int(rng.integers(len(rows)))
                return "eager", index, mlp(Tensor(rows[index])).data

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcome = BarrierHarness(4, 6, seed=5).run_free(worker)
        finally:
            sys.setswitchinterval(previous)
        assert not outcome.errors
        assert len(outcome.results) == 4 * 6
        for kind, first, second in outcome.results.values():
            if kind == "trace":
                np.testing.assert_array_equal(first, expected)
                assert second["poisoned"] == 0
                assert second["ops"] == solo_ops
            else:
                np.testing.assert_array_equal(second, expected_rows[first])
