"""Trace recording: capture one eager forward as a linear replay schedule.

The tracer rides along with normal eager execution (installed via
:func:`repro.nn.tensor.set_tracer`).  Each op contributes one of:

``record_ew``
    A fusible elementwise step: ``fn(srcs, out)`` recomputes ``out`` in
    place and is alias-safe (``out`` may alias a source), which is what
    lets the fusion pass collapse a chain's intermediates into one buffer.
``record``
    An opaque step: a zero-arg thunk that refreshes the op's output
    buffer (and any arrays its backward closure captured) in place.
``record_view``
    A no-op step: the output aliases its parent's memory, so refreshing
    the parent refreshes the view for free.

Safety comes from three mechanisms:

* **Coverage** — ``Tensor._make`` announces every op result via
  :meth:`expect`; a ``record_*`` call consumes the announcement.  An op
  with no replay rule therefore *poisons* the trace instead of silently
  dropping a computation from the schedule.
* **Leaf guards** — any tensor read by the trace that the trace does not
  itself compute (parameters, constants) is pinned by identity; replay is
  refused if ``tensor.data`` was rebound (e.g. ``load_state_dict``).
* **Poison** — constructs whose replay would diverge from eager semantics
  (training-mode batchnorm/dropout, externally-conditioned ``where``)
  mark the trace unusable; the caller falls back to eager permanently for
  that signature.

The recorder slot is per thread, so a tracer sees only the ops of the
thread that installed it.  ``Module.__call__`` also records one
``(type name, first step, end step)`` span per module call, in post-order,
so a replay can report per-module time to a module call hook.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Step", "Tracer", "check_guards"]


class Step:
    """One schedule slot: either a fusible elementwise spec or a thunk."""

    __slots__ = ("run", "fn", "srcs", "out", "op")

    def __init__(self, run=None, fn=None, srcs=(), out=None, op=""):
        self.run = run      # zero-arg thunk (opaque steps)
        self.fn = fn        # fn(srcs, out) in-place kernel (fusible steps)
        self.srcs = srcs    # arrays this step reads (for liveness analysis)
        self.out = out      # the retained output buffer
        self.op = op

    @property
    def fusible(self) -> bool:
        return self.fn is not None


def check_guards(guards) -> bool:
    """True iff every pinned leaf/buffer still holds the traced array."""
    for obj, attr, arr in guards:
        current = obj.data if attr is None else getattr(obj, attr, None)
        if current is not arr:
            return False
    return True


class Tracer:
    """Records the replay schedule of one forward pass."""

    def __init__(self) -> None:
        self.steps: list[Step] = []
        #: ``(module type name, first step, end step)`` per module call,
        #: in post-order (the order eager fires the module call hook).
        self.spans: list[tuple[str, int, int]] = []
        #: ``(tensor, None, array)`` leaf pins and ``(module, name, array)``
        #: buffer pins, checked by identity before every replay.
        self.guards: list[tuple[object, str | None, np.ndarray]] = []
        self.poison_reason: str | None = None
        # Arrays the trace computes (or was handed as input): reads of
        # these need no guard because replay refreshes them.
        self._known: set[int] = set()
        self._guarded_tensors: set[int] = set()
        self._guarded_buffers: set[tuple[int, str]] = set()
        self._pending: tuple[int, str] | None = None

    # -------------------------------------------------------------- #
    # Coverage protocol (see Tensor._make)
    # -------------------------------------------------------------- #
    def expect(self, out, op: str) -> None:
        if self._pending is not None:
            self.poison(f"op {self._pending[1]!r} has no replay rule")
        self._pending = (id(out.data), op)

    def _consume(self, out) -> None:
        if self._pending is not None and self._pending[0] == id(out.data):
            self._pending = None

    def finalize(self) -> None:
        """Flush the coverage check after the traced forward returns."""
        if self._pending is not None:
            self.poison(f"op {self._pending[1]!r} has no replay rule")

    def poison(self, reason: str) -> None:
        """Mark the trace unusable; first reason wins."""
        if self.poison_reason is None:
            self.poison_reason = str(reason)

    # -------------------------------------------------------------- #
    # Inputs and guards
    # -------------------------------------------------------------- #
    def add_input(self, tensor) -> None:
        """Declare ``tensor`` as the replay-refreshed program input."""
        self._known.add(id(tensor.data))

    def guard_buffer(self, module, name: str) -> None:
        """Pin a module attribute (e.g. a batchnorm running stat)."""
        key = (id(module), name)
        if key not in self._guarded_buffers:
            self._guarded_buffers.add(key)
            self.guards.append((module, name, getattr(module, name)))

    def _note_parents(self, parents) -> None:
        for parent in parents:
            arr = parent.data
            if id(arr) in self._known:
                continue
            self._known.add(id(arr))
            base = arr
            while isinstance(base, np.ndarray) and base.base is not None:
                base = base.base
            if base is not arr and id(base) in self._known:
                # A view of a traced buffer (shared-data tensors, detach):
                # refreshed through its base, nothing to pin.
                continue
            if id(parent) not in self._guarded_tensors:
                self._guarded_tensors.add(id(parent))
                self.guards.append((parent, None, arr))

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #
    def record(self, out, parents, run, reads=None, op: str = "") -> None:
        """Record an opaque step replayed by calling ``run()``."""
        self._consume(out)
        self._note_parents(parents)
        if reads is None:
            reads = tuple(p.data for p in parents)
        self._known.add(id(out.data))
        self.steps.append(Step(run=run, srcs=reads, out=out.data, op=op))

    def record_ew(self, out, parents, fn, srcs=None, op: str = "") -> None:
        """Record a fusible elementwise step ``fn(srcs, out)``."""
        self._consume(out)
        self._note_parents(parents)
        if srcs is None:
            srcs = tuple(p.data for p in parents)
        self._known.add(id(out.data))
        self.steps.append(Step(fn=fn, srcs=tuple(srcs), out=out.data, op=op))

    def record_view(self, out, parent) -> None:
        """Record that ``out`` aliases ``parent`` — no replay work."""
        self._consume(out)
        self._note_parents((parent,))
        self._known.add(id(out.data))

    def record_span(self, module_type: str, first: int) -> None:
        """Close one module call that began at step ``first``."""
        self.spans.append((module_type, first, len(self.steps)))
