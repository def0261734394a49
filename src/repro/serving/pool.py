"""Worker-pool executor behind the micro-batching front end.

:class:`WorkerPool` owns the *real* threads; the event loop owns all
the semantics.  The split is strict:

* the event loop admits requests, pins gallery snapshots, runs
  accounting (``service.begin_batch``) in arrival order, picks the
  worker (earliest virtual ``free_at``, lowest index on ties), and
  settles completions in virtual-time order;
* workers run only the pure compute (``service.compute_batch``:
  embedding forward + snapshot-pinned gallery search), which releases
  the GIL inside the BLAS kernels, so pooled throughput scales with
  worker count on real hardware while virtual-clock scheduling stays
  deterministic.

``workers=1`` degenerates to an inline executor (no threads, eager
evaluation), so a single-worker run keeps everything on the loop thread
and is cheap to construct.

While a multi-worker pool is open, :func:`repro.obs.thread_safe_metrics`
is active so counters incremented from worker threads cannot lose
updates.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor

from repro.obs import gauge, thread_safe_metrics


class _Immediate:
    """Future-alike that ran its callable eagerly on the caller's thread."""

    __slots__ = ("_value", "_error")

    def __init__(self, fn, args) -> None:
        try:
            self._value = fn(*args)
            self._error = None
        except BaseException as exc:  # re-raised at result()
            self._value = None
            self._error = exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class WorkerPool:
    """Fixed-size compute pool with per-worker virtual clocks.

    Use as a context manager around one scheduler run; exiting shuts
    the threads down and tears down the metrics lock.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._executor: ThreadPoolExecutor | None = None
        self._metrics_guard: thread_safe_metrics | None = None
        #: Virtual time at which each worker becomes free.
        self.free_at_s = [0.0] * self.workers
        #: Virtual busy time accumulated per worker (utilization gauges).
        self.busy_s = [0.0] * self.workers

    def __enter__(self) -> "WorkerPool":
        if self.workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-serving")
            self._metrics_guard = thread_safe_metrics()
            self._metrics_guard.__enter__()
        gauge("serving.pool_workers").set(self.workers)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._metrics_guard is not None:
            self._metrics_guard.__exit__(*exc_info)
            self._metrics_guard = None
        for position, busy in enumerate(self.busy_s):
            gauge("serving.worker_busy_s", worker=str(position)).set(busy)

    # -------------------------------------------------------------- #
    # Scheduling
    # -------------------------------------------------------------- #
    @property
    def min_free_s(self) -> float:
        return min(self.free_at_s)

    def pick_worker(self) -> int:
        """Earliest-free worker, lowest index on ties (deterministic)."""
        best = 0
        for position in range(1, self.workers):
            if self.free_at_s[position] < self.free_at_s[best]:
                best = position
        return best

    def occupy(self, worker: int, start_s: float, cost_s: float) -> float:
        """Book ``cost_s`` of virtual time on ``worker``; returns done_s."""
        done_s = max(start_s, self.free_at_s[worker]) + cost_s
        self.free_at_s[worker] = done_s
        self.busy_s[worker] += cost_s
        return done_s

    def submit(self, fn, *args) -> "Future | _Immediate":
        """Run ``fn(*args)`` on a worker (or inline when ``workers==1``)."""
        if self._executor is None:
            return _Immediate(fn, args)
        return self._executor.submit(fn, *args)


__all__ = ["WorkerPool"]
