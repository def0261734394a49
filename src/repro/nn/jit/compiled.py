"""compile(): signature-cached trace replay with eager fallback guards.

``CompiledModule`` wraps a module and dispatches each call:

* eager, when the op-level profiling/NaN-guard make-hook is installed,
  when this thread is already recording an outer trace, or when the
  signature is known-poisoned;
* trace, on the first call per ``(shape, dtype, grad-flags, training)``
  signature — the eager pass runs normally (so its result is exact) while
  the tracer records the replay schedule;
* replay, afterwards — guard pins are identity-checked first, and a
  failed guard (rebound parameter or buffer) retraces.  An installed
  module call hook is fed per-module time from the replay itself.

Programs are cached per ``(thread, signature)``: each thread replays its
own arena, so worker threads may call one module concurrently.  A lock
covers only the cache bookkeeping, and the recorder slot is per thread,
so threads trace concurrently too.  The cache is LRU-bounded by
``gemm_conv.MAX_PLANS`` (shared with the GEMM conv plan cache) and
evictions tick ``nn.jit.trace_cache.evictions``; fallbacks tick
reason-labelled ``nn.jit.fallbacks`` counters so obs dashboards can see
why replay was declined.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

from repro.obs import counter
from repro.nn import modules as _modules
from repro.nn import tensor as _tensor
from repro.nn.tensor import Tensor, is_grad_enabled, make_op
from repro.nn.jit.program import TraceProgram
from repro.nn.jit.tracer import Tracer

__all__ = [
    "CompiledModule",
    "clear_trace_caches",
    "compile",
    "trace_cache_info",
]

#: Every live CompiledModule, for cache introspection and global clears.
_COMPILED: "weakref.WeakSet[CompiledModule]" = weakref.WeakSet()

class _Poisoned:
    """Cached negative result: this signature cannot be replayed."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason


class CompiledModule:
    """Trace-on-first-call, replay-afterwards wrapper around a module."""

    def __init__(self, module, fuse: bool = True) -> None:
        self._module = module
        self._fuse = bool(fuse)
        self._params = list(module.parameters())
        #: ``(thread ident, signature)`` → program, in LRU order.
        self._traces: "OrderedDict[tuple, TraceProgram | _Poisoned]" = \
            OrderedDict()
        self._lock = threading.Lock()
        _COMPILED.add(self)

    @property
    def module(self):
        return self._module

    @property
    def traces(self) -> int:
        return len(self._traces)

    def stats(self) -> dict:
        """Aggregate per-trace schedule stats (for benches/tests)."""
        with self._lock:
            entries = list(self._traces.values())
        programs = [p for p in entries if isinstance(p, TraceProgram)]
        return {
            "traces": len(programs),
            "poisoned": sum(isinstance(p, _Poisoned) for p in entries),
            "ops": sum(p.op_count for p in programs),
            "slots": sum(p.slot_count for p in programs),
            "fused_steps": sum(p.stats["fused_steps"] for p in programs),
            "bytes_saved": sum(p.stats["bytes_saved"] for p in programs),
            "arena_bytes": sum(p.arena_bytes for p in programs),
        }

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    # -------------------------------------------------------------- #
    # Dispatch
    # -------------------------------------------------------------- #
    def __call__(self, x: Tensor) -> Tensor:
        if _tensor._MAKE_HOOK is not None:
            # Op profiler or NaN guard installed: replay makes no op
            # tensors for them to see, so instrumented runs stay eager.
            counter("nn.jit.fallbacks", reason="hooks").inc()
            return self._module(x)
        if _tensor.get_tracer() is not None:
            # Already recording an outer trace; run eagerly so our ops
            # are recorded into it instead of replayed invisibly.
            counter("nn.jit.fallbacks", reason="nested_trace").inc()
            return self._module(x)
        grad_on = is_grad_enabled()
        x_grad = bool(grad_on and x.requires_grad)
        flags = tuple(p.requires_grad for p in self._params) if grad_on \
            else ()
        grad_mode = x_grad or any(flags)
        key = (threading.get_ident(),
               (x.data.shape, x.data.dtype.str, x_grad, flags,
                bool(getattr(self._module, "training", False))))
        with self._lock:
            program = self._traces.get(key)
            if program is not None:
                self._traces.move_to_end(key)
        if program is None:
            counter("nn.jit.trace_misses").inc()
            return self._trace(key, x, grad_mode)
        if isinstance(program, _Poisoned):
            counter("nn.jit.fallbacks", reason="poisoned").inc()
            return self._module(x)
        if not program.check_guards():
            counter("nn.jit.retraces").inc()
            with self._lock:
                self._traces.pop(key, None)
            return self._trace(key, x, grad_mode)
        counter("nn.jit.replays").inc()
        hook = _modules._CALL_HOOK
        if program.grad_mode:
            program.replay_forward(x.data, hook)
            return self._bridge(program, x)
        return Tensor(program.replay(x.data, hook).copy())

    # -------------------------------------------------------------- #
    # Tracing
    # -------------------------------------------------------------- #
    def _trace(self, key, x: Tensor, grad_mode: bool) -> Tensor:
        # Trace against a private input tensor: the recorded graph must
        # not be rooted in the caller's tensor, whose .data the next
        # replay would never see.
        inner_in = Tensor(x.data.copy(), requires_grad=x.requires_grad)
        tracer = Tracer()
        tracer.add_input(inner_in)
        _tensor.set_tracer(tracer)
        try:
            inner_out = self._module(inner_in)
        finally:
            _tensor.set_tracer(None)
        tracer.finalize()
        if not isinstance(inner_out, Tensor):
            tracer.poison("forward returned a non-Tensor")
        if tracer.poison_reason is not None:
            counter("nn.jit.poisoned").inc()
            self._store(key, _Poisoned(tracer.poison_reason))
            if grad_mode:
                # The traced pass is rooted at the private input; rerun
                # eagerly so the caller's graph connects to their tensor.
                return self._module(x)
            return inner_out
        program = TraceProgram(tracer, inner_in, inner_out, grad_mode,
                               fuse=self._fuse)
        self._store(key, program)
        if grad_mode:
            program.serial += 1
            return self._bridge(program, x)
        return Tensor(program.output_data.copy())

    def _store(self, key, program) -> None:
        from repro.perf import gemm_conv

        with self._lock:
            self._traces[key] = program
            self._traces.move_to_end(key)
            while len(self._traces) > gemm_conv.MAX_PLANS:
                self._traces.popitem(last=False)
                counter("nn.jit.trace_cache.evictions").inc()

    # -------------------------------------------------------------- #
    # Gradient bridge
    # -------------------------------------------------------------- #
    def _bridge(self, program: TraceProgram, x: Tensor) -> Tensor:
        """Connect the retained inner graph to the caller's graph.

        The bridge op's backward replays the inner tape: parameter grads
        accumulate directly on the (shared) parameter tensors, and the
        input grad is forwarded to the caller's tensor.  Parameters are
        listed as parents so ``requires_grad`` propagates even when the
        input itself does not require grad; their slots in the returned
        grad tuple are ``None`` because the inner tape already
        accumulated them.
        """
        serial = program.serial
        inner_in, inner_out = program.input, program.output
        grad_parents = [p for p in self._params if p.requires_grad]

        def backward(grad, out=None):
            if program.serial != serial:
                raise RuntimeError(
                    "jit: backward through a stale replay — a later "
                    "forward overwrote this trace's buffers; run "
                    "multi-forward gradient accumulation eagerly")
            inner_in.grad = None
            inner_out.backward(grad)
            input_grad = inner_in.grad
            inner_in.grad = None
            return (input_grad,) + (None,) * len(grad_parents)

        return make_op(inner_out.data.copy(), (x, *grad_parents), backward,
                       "jit.replay")


def compile(module, fuse: bool = True) -> CompiledModule:
    """Wrap ``module`` for trace-record/replay execution.

    ``fuse=False`` still replays the flat schedule but skips the
    elementwise-chain fusion pass (useful for benchmarking the two
    contributions separately).
    """
    if isinstance(module, CompiledModule):
        return module
    return CompiledModule(module, fuse=fuse)


def trace_cache_info() -> dict:
    """Aggregate trace-cache stats across all live compiled modules."""
    modules = list(_COMPILED)
    info = {"modules": len(modules), "traces": 0, "poisoned": 0,
            "arena_bytes": 0}
    for compiled in modules:
        stats = compiled.stats()
        info["traces"] += stats["traces"]
        info["poisoned"] += stats["poisoned"]
        info["arena_bytes"] += stats["arena_bytes"]
    return info


def clear_trace_caches() -> None:
    """Drop every cached trace (e.g. after mutating kernel behaviour)."""
    for compiled in list(_COMPILED):
        compiled.clear()
