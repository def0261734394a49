"""Op-level autograd profiler for the ``repro.nn`` engine.

:class:`OpProfiler` hooks the three dispatch points of the nn stack:

* **op construction** (``Tensor._make``) — counts every autograd op and
  the bytes/elements of its output tensor (the forward fan-out);
* **backward dispatch** (``_dispatch_backward``) — wall time of each
  op's backward closure, aggregated per op type (the autograd hot path);
* **module forward** (``Module.__call__``) — wall time per module class
  (``Conv3d``, ``BatchNorm3d``, …).  Container modules include their
  children's time, so read this column hierarchically.

The hooks are plain module-level callables checked against ``None`` on
the hot path, so an un-profiled run pays one global read per op (the
``test_profiler`` micro-bench pins that overhead below 2% of a small
op's cost).  Per-op aggregates are interned slotted records — the hook
bodies do attribute adds on a cached object instead of building or
re-hashing dicts on every op call; the dict-shaped ``ops`` /
``backward`` / ``modules`` views are materialized lazily for reporting.

The profiler nests: entering saves whatever hooks were installed and
chains to them, so an outer profiler keeps aggregating through an inner
one.

Usage::

    from repro.obs import OpProfiler

    with OpProfiler() as prof:
        loss = model(batch).sum()
        loss.backward()
    print(prof.table())
"""

from __future__ import annotations


def _nn():
    # Imported lazily: repro.obs is a leaf dependency of the whole stack,
    # so importing repro.nn at module level would create an import cycle.
    from repro.nn import modules, tensor

    return modules, tensor


class _OpStats:
    """Interned per-op forward record (attribute adds, no dict hashing)."""

    __slots__ = ("count", "output_bytes", "output_elems")

    def __init__(self) -> None:
        self.count = 0
        self.output_bytes = 0
        self.output_elems = 0

    def as_dict(self) -> dict[str, int]:
        return {"count": self.count, "output_bytes": self.output_bytes,
                "output_elems": self.output_elems}


class _TimeStats:
    """Interned per-key wall-time record."""

    __slots__ = ("count", "total_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0

    def as_dict(self) -> dict[str, float]:
        return {"count": self.count, "total_s": self.total_s}


class OpProfiler:
    """Aggregate per-op-type forward counts/sizes and backward times."""

    def __init__(self, profile_modules: bool = True) -> None:
        self.profile_modules = bool(profile_modules)
        self._saved_autograd = (None, None)
        self._saved_call = None
        # Pre-interned chain targets: the hook bodies read one attribute
        # instead of indexing the saved-hooks tuple on every op.
        self._chain_make = None
        self._chain_backward = None
        self.reset()

    def reset(self) -> None:
        """Drop all aggregated statistics."""
        self._ops: dict[str, _OpStats] = {}
        self._backward: dict[str, _TimeStats] = {}
        self._modules: dict[str, _TimeStats] = {}

    # -------------------------------------------------------------- #
    # Dict-shaped views (reporting surface; hot path never builds these)
    # -------------------------------------------------------------- #
    @property
    def ops(self) -> dict[str, dict[str, int]]:
        """op → ``{count, output_bytes, output_elems}``."""
        return {op: stats.as_dict() for op, stats in self._ops.items()}

    @property
    def backward(self) -> dict[str, dict[str, float]]:
        """op → ``{count, total_s}``."""
        return {op: stats.as_dict() for op, stats in self._backward.items()}

    @property
    def modules(self) -> dict[str, dict[str, float]]:
        """module class name → ``{count, total_s}``."""
        return {cls: stats.as_dict() for cls, stats in self._modules.items()}

    # -------------------------------------------------------------- #
    # Hook bodies
    # -------------------------------------------------------------- #
    def _on_make(self, op: str, data) -> None:
        entry = self._ops.get(op)
        if entry is None:
            entry = self._ops[op] = _OpStats()
        entry.count += 1
        entry.output_bytes += data.nbytes
        entry.output_elems += data.size
        chained = self._chain_make
        if chained is not None:
            chained(op, data)

    def _on_backward(self, op: str, seconds: float) -> None:
        entry = self._backward.get(op)
        if entry is None:
            entry = self._backward[op] = _TimeStats()
        entry.count += 1
        entry.total_s += seconds
        chained = self._chain_backward
        if chained is not None:
            chained(op, seconds)

    def _on_module(self, module_type: str, seconds: float) -> None:
        entry = self._modules.get(module_type)
        if entry is None:
            entry = self._modules[module_type] = _TimeStats()
        entry.count += 1
        entry.total_s += seconds
        if self._saved_call is not None:
            self._saved_call(module_type, seconds)

    # -------------------------------------------------------------- #
    # Context manager protocol
    # -------------------------------------------------------------- #
    def __enter__(self) -> "OpProfiler":
        modules, tensor = _nn()
        self._saved_autograd = tensor.get_autograd_hooks()
        self._chain_make, self._chain_backward = self._saved_autograd
        tensor.set_autograd_hooks(self._on_make, self._on_backward)
        if self.profile_modules:
            self._saved_call = modules.get_call_hook()
            modules.set_call_hook(self._on_module)
        return self

    def __exit__(self, *exc: object) -> None:
        modules, tensor = _nn()
        tensor.set_autograd_hooks(*self._saved_autograd)
        self._saved_autograd = (None, None)
        self._chain_make = None
        self._chain_backward = None
        if self.profile_modules:
            modules.set_call_hook(self._saved_call)
            self._saved_call = None

    # -------------------------------------------------------------- #
    # Reporting
    # -------------------------------------------------------------- #
    def summary(self) -> dict:
        """Return a JSON-able ``{ops, backward, modules}`` report."""
        return {
            "ops": {op: stats.as_dict()
                    for op, stats in sorted(self._ops.items())},
            "backward": {
                op: {**stats.as_dict(),
                     "mean_s": stats.total_s / stats.count}
                for op, stats in sorted(self._backward.items(),
                                        key=lambda kv: -kv[1].total_s)
            },
            "modules": {
                cls: {**stats.as_dict(),
                      "mean_s": stats.total_s / stats.count}
                for cls, stats in sorted(self._modules.items(),
                                         key=lambda kv: -kv[1].total_s)
            },
        }

    def table(self, limit: int = 20) -> str:
        """Format the top-``limit`` ops by backward time as a text table."""
        lines = [f"{'op':<14}{'fwd count':>10}{'out MiB':>10}"
                 f"{'bwd count':>10}{'bwd ms':>10}"]
        empty = _TimeStats()
        ranked = sorted(
            self._ops,
            key=lambda op: -self._backward.get(op, empty).total_s,
        )
        for op in ranked[:limit]:
            fwd = self._ops[op]
            bwd = self._backward.get(op, empty)
            lines.append(
                f"{op:<14}{fwd.count:>10}"
                f"{fwd.output_bytes / 2**20:>10.2f}"
                f"{bwd.count:>10}{bwd.total_s * 1e3:>10.2f}"
            )
        if self._modules:
            lines.append("")
            lines.append(f"{'module':<20}{'calls':>10}{'fwd ms':>10}")
            for cls, stats in sorted(self._modules.items(),
                                     key=lambda kv: -kv[1].total_s)[:limit]:
                lines.append(f"{cls:<20}{stats.count:>10}"
                             f"{stats.total_s * 1e3:>10.2f}")
        return "\n".join(lines)
