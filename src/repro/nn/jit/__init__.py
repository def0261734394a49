"""JIT-lite: trace a model forward once per shape, replay a flat schedule.

DUO-style black-box attacks evaluate thousands of small-shape forward
passes, so Python dispatch — walking the module tree, rebuilding the
autograd tape, re-allocating every intermediate — dominates BLAS time.
This package removes that overhead the same way the GEMM conv plan cache
removed per-call conv planning: pay the bookkeeping once per input
signature, then replay.

* :func:`compile` wraps a module in a :class:`CompiledModule` that traces
  the first call per ``(shape, dtype, grad-mode, training)`` signature and
  replays a pre-bound kernel schedule afterwards.
* :mod:`~repro.nn.jit.tracer` records each op's in-place replay rule while
  the eager pass runs — replay is bit-identical by construction because it
  re-executes the same numpy expressions in the same order into the same
  buffers.
* :mod:`~repro.nn.jit.fuse` collapses elementwise chains into single
  schedule slots and aliases their intermediates into one arena buffer.
* Guards fall back to eager on an installed op-level profiling/NaN
  hook, and retrace on rebound parameters or batchnorm buffers;
  untraceable constructs (training batchnorm/dropout, data-dependent
  selects) stay eager, so instrumentation and stateful defenses always
  observe real executions.  A module call hook is fed per-module time
  from the replay itself.
* Programs are cached per ``(thread, signature)``, so worker threads
  replay one module concurrently, each in its own arena.

Every inference forward of a
:class:`~repro.models.feature_extractor.FeatureExtractor` replays;
``embed_videos(..., fuse=False)`` is the eager reference path.

See DESIGN.md §14 for lifecycle, fusion rules, and fallback semantics.
"""

from repro.nn.jit.compiled import (
    CompiledModule,
    clear_trace_caches,
    compile,
    trace_cache_info,
)
from repro.nn.jit.program import TraceProgram
from repro.nn.jit.tracer import Tracer

__all__ = [
    "CompiledModule",
    "TraceProgram",
    "Tracer",
    "clear_trace_caches",
    "compile",
    "trace_cache_info",
]
