"""TraceProgram: a finalized, replayable schedule for one signature.

Inference programs collapse the autograd tape entirely: the Tensor graph
from the traced pass is dropped and only the flat runner list, the input
and output buffers, and the guard pins survive.  Every intermediate that
fusion did not alias away is retained inside the runner closures — that
retained set *is* the buffer arena, owned by the program and reused by
every replay.

Gradient programs keep the traced inner graph alive instead: replay
refreshes the forward buffers in place (every backward closure captured
those same arrays, so the retained tape computes gradients for the *new*
input), and :mod:`~repro.nn.jit.compiled` bridges the inner graph to the
caller's graph.  ``serial`` tracks which replay last wrote the buffers so
a backward against overwritten state fails loudly instead of silently
using the wrong activations.

A replay given a module call hook times each slot and then fires the
hook once per module call the trace recorded, in eager's post-order.  A
module is charged every slot that *starts* inside its span, so
containers stay inclusive and a fused chain that crosses a module
boundary is charged to the module that started it.
"""

from __future__ import annotations

import time
from bisect import bisect_left

import numpy as np

from repro.nn.jit.fuse import fuse_steps
from repro.nn.jit.tracer import check_guards

__all__ = ["TraceProgram"]


def _base(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr


def _slot_runner(slot):
    """One callable per slot; fused chains run their kernels in order."""
    if len(slot) == 1:
        step = slot[0]
        if step.fn is None:
            return step.run
        fn, srcs, out = step.fn, step.srcs, step.out
        return lambda: fn(srcs, out)
    items = [(step.fn, step.srcs, step.out) for step in slot]

    def run():
        for fn, srcs, out in items:
            fn(srcs, out)

    return run


class TraceProgram:
    """A pre-bound kernel schedule for one input signature."""

    def __init__(self, tracer, inp, out, grad_mode: bool,
                 fuse: bool = True) -> None:
        self.guards = tracer.guards
        self.grad_mode = bool(grad_mode)
        steps = tracer.steps
        self.op_count = len(steps)
        #: Monotonic replay counter for grad-mode staleness detection.
        self.serial = 0
        if grad_mode:
            # Keep the inner graph: backward closures replay the tape.
            self.input = inp
            self.output = out
            slots = [[step] for step in steps]
            self.runs = [_slot_runner(slot) for slot in slots]
            self.stats = {"fused_steps": 0, "bytes_saved": 0}
            self.arena_bytes = sum(
                {id(step.out): step.out.nbytes for step in steps}.values())
        else:
            protected = {id(_base(out.data))}
            if fuse:
                slots, self.stats = fuse_steps(steps, protected)
            else:
                slots = [[step] for step in steps]
                self.stats = {"fused_steps": 0, "bytes_saved": 0}
            self.runs = [_slot_runner(slot) for slot in slots]
            # Collapse the tape: only the buffers inside the runner
            # closures (the arena) plus the endpoints survive.
            self.input = None
            self.output = None
            self.input_data = inp.data
            self.output_data = out.data
            self.arena_bytes = sum(
                {id(step.out): step.out.nbytes
                 for slot in slots for step in slot}.values())
        self.slot_count = len(self.runs)
        # Slots partition the steps in order; map each recorded module
        # span onto the slots that start inside it.
        starts, position = [], 0
        for slot in slots:
            starts.append(position)
            position += len(slot)
        self.spans = [(name, bisect_left(starts, first),
                       bisect_left(starts, end))
                      for name, first, end in tracer.spans]

    def check_guards(self) -> bool:
        return check_guards(self.guards)

    def _run(self, hook) -> None:
        if hook is None:
            for run in self.runs:
                run()
            return
        clock = time.perf_counter
        stamps = [clock()]
        for run in self.runs:
            run()
            stamps.append(clock())
        for name, lo, hi in self.spans:
            hook(name, stamps[hi] - stamps[lo])

    def replay(self, x_data: np.ndarray, hook=None) -> np.ndarray:
        """Inference replay: refresh the arena, return the output buffer.

        The returned array is owned by the program and overwritten by the
        next replay — callers must copy (CompiledModule does).  ``hook``
        is the module call hook to report per-module time to.
        """
        np.copyto(self.input_data, x_data)
        self._run(hook)
        return self.output_data

    def replay_forward(self, x_data: np.ndarray, hook=None) -> None:
        """Grad-mode replay: refresh the retained tape's buffers in place."""
        np.copyto(self.input.data, x_data)
        self._run(hook)
        self.serial += 1
