"""Seeded fault injection — proof that the oracles have teeth.

A correctness harness that never fires is indistinguishable from one
that cannot fire.  :func:`seeded_conv_fault` deliberately perturbs the
GEMM conv kernel (the exact class of silent numerical drift the
differential oracles exist to catch); the mutation smoke test asserts
the ``conv*.einsum_vs_gemm`` pairs fail under the fault and pass again
once it is lifted.

The injection point is ``repro.perf.gemm_conv.conv_forward``:
``repro.nn.functional`` resolves it from the module at call time, so
swapping the module attribute reroutes every conv without touching any
other code path.
"""

from __future__ import annotations

import contextlib

from repro.perf import gemm_conv


@contextlib.contextmanager
def seeded_conv_fault(scale: float = 1.0 + 1e-3):
    """Multiply GEMM conv forward outputs by ``scale`` while active.

    The default fault is a 0.1% relative error — far above oracle
    tolerance, far below anything an end-to-end smoke test would
    notice, which is precisely the regression class the differential
    oracles must catch.
    """
    original = gemm_conv.conv_forward

    def faulty(*args, **kwargs):
        out, cols, plan = original(*args, **kwargs)
        return out * scale, cols, plan

    gemm_conv.conv_forward = faulty
    try:
        yield
    finally:
        gemm_conv.conv_forward = original


@contextlib.contextmanager
def seeded_fused_fault(scale: float = 1.0 + 1e-3):
    """Corrupt the fused elementwise-add replay kernel while active.

    Eager execution is untouched (it calls ``np.add`` directly); only
    traces recorded while the fault is live replay wrong, which is the
    silent-drift class the ``nn.fused_vs_eager`` oracle exists to catch.
    The injection point is ``repro.nn.tensor._ew_add`` — ``Tensor.__add__``
    resolves it from module globals at record time, so newly recorded
    schedules pick up the fault.  Trace caches are cleared on entry *and*
    exit: cached pre-fault schedules must not mask the fault, and cached
    faulty schedules must not outlive it.
    """
    import numpy as np

    from repro.nn import jit
    from repro.nn import tensor

    original = tensor._ew_add

    def faulty(srcs, out):
        original(srcs, out)
        np.multiply(out, scale, out=out)

    tensor._ew_add = faulty
    jit.clear_trace_caches()
    try:
        yield
    finally:
        tensor._ew_add = original
        jit.clear_trace_caches()
