"""Process-local metrics registry: counters, gauges, bucketed histograms.

The registry is the numeric half of ``repro.obs`` (spans are the
structural half, see :mod:`repro.obs.tracing`).  Instruments are
get-or-created by ``(name, labels)`` so hot paths can either cache the
returned handle or re-resolve it every call — both hit the same object.
Query efficiency is a headline metric of the DUO paper, so the registry
is designed around cheap increments (a dict lookup + float add) and a
snapshot/reset cycle that experiment runners use to emit one JSON
sidecar per table/figure run.

Conventions
-----------
* Metric names are dotted lowercase (``retrieval.queries``).
* Labels are keyword arguments with string-able values
  (``counter("gallery.node_skipped", node="node-2")``).
* ``snapshot()`` returns plain JSON-able dicts; ``reset()`` zeroes
  values **in place** so cached handles stay live across runs.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Iterable

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)

LabelKey = tuple[tuple[str, str], ...]

#: Shared write lock, installed only while a worker pool is live (see
#: :func:`thread_safe_metrics`).  ``None`` — the overwhelmingly common
#: case — keeps increments a plain float add, so the obs-overhead bench
#: gates are unaffected when no threads are running.
_MT_LOCK: threading.Lock | None = None
_MT_DEPTH = 0


class thread_safe_metrics:
    """Context manager making instrument writes thread-safe while open.

    The serving worker pool wraps its run in this so counter increments
    from worker threads cannot lose updates; nesting is supported and
    the lock is removed when the outermost context exits.
    """

    def __enter__(self) -> None:
        global _MT_LOCK, _MT_DEPTH
        _MT_DEPTH += 1
        if _MT_LOCK is None:
            _MT_LOCK = threading.Lock()

    def __exit__(self, *exc_info) -> None:
        global _MT_LOCK, _MT_DEPTH
        _MT_DEPTH -= 1
        if _MT_DEPTH <= 0:
            _MT_DEPTH = 0
            _MT_LOCK = None


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_key(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        lock = _MT_LOCK
        if lock is None:
            self.value += amount
        else:
            with lock:
                self.value += amount

    def _reset(self) -> None:
        self.value = 0.0

    def _snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-written value (objective levels, budget remaining, …)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        lock = _MT_LOCK
        if lock is None:
            base = 0.0 if math.isnan(self.value) else self.value
            self.value = base + amount
        else:
            with lock:
                base = 0.0 if math.isnan(self.value) else self.value
                self.value = base + amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _reset(self) -> None:
        self.value = float("nan")

    def _snapshot(self) -> float:
        return self.value


class Histogram:
    """Cumulative bucketed distribution with count/sum/min/max."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "total", "minimum", "maximum")

    def __init__(self, name: str, labels: LabelKey = (),
                 buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._reset()

    def observe(self, value: float) -> None:
        """Record one sample."""
        lock = _MT_LOCK
        if lock is not None:
            with lock:
                self._observe(float(value))
            return
        self._observe(float(value))

    def _observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1  # +Inf overflow bucket

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def _reset(self) -> None:
        # One extra slot for the implicit +Inf bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def _snapshot(self) -> dict:
        buckets = {f"le_{bound:g}": count
                   for bound, count in zip(self.bounds, self.bucket_counts)}
        buckets["le_inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean if self.count else None,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Process-local instrument store, keyed by ``(name, labels)``.

    Thread-safe on instrument *creation*; increments themselves are plain
    float ops (the GIL makes them atomic enough for accounting purposes,
    and the repo's hot paths are single-threaded).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        # Interned plain-name handles: label-less lookups (the common
        # hot-path shape) skip the sorted label-tuple build entirely.
        self._plain_counters: dict[str, Counter] = {}
        self._plain_gauges: dict[str, Gauge] = {}
        self._plain_histograms: dict[str, Histogram] = {}

    # -------------------------------------------------------------- #
    # Instrument access (get-or-create)
    # -------------------------------------------------------------- #
    def counter(self, name: str, **labels) -> Counter:
        if not labels:
            instrument = self._plain_counters.get(name)
            if instrument is None:
                with self._lock:
                    instrument = self._counters.setdefault(
                        (name, ()), Counter(name, ()))
                    self._plain_counters[name] = instrument
            return instrument
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(
                    key, Counter(name, key[1]))
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        if not labels:
            instrument = self._plain_gauges.get(name)
            if instrument is None:
                with self._lock:
                    instrument = self._gauges.setdefault(
                        (name, ()), Gauge(name, ()))
                    self._plain_gauges[name] = instrument
            return instrument
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge(name, key[1]))
        return instrument

    def histogram(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        if not labels:
            instrument = self._plain_histograms.get(name)
            if instrument is None:
                with self._lock:
                    instrument = self._histograms.setdefault(
                        (name, ()), Histogram(name, (), buckets))
                    self._plain_histograms[name] = instrument
            return instrument
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(name, key[1], buckets))
        return instrument

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def reset(self) -> None:
        """Zero every instrument in place (handles stay valid)."""
        with self._lock:
            for store in (self._counters, self._gauges, self._histograms):
                for instrument in store.values():
                    instrument._reset()

    def clear(self) -> None:
        """Drop every instrument (cached handles become orphans)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._plain_counters.clear()
            self._plain_gauges.clear()
            self._plain_histograms.clear()

    # -------------------------------------------------------------- #
    # Export
    # -------------------------------------------------------------- #
    def snapshot(self) -> dict:
        """Return a JSON-able ``{counters, gauges, histograms}`` dict."""
        with self._lock:
            counters = {
                _format_key(name, key): instrument._snapshot()
                for (name, key), instrument in sorted(self._counters.items())
            }
            gauges = {}
            for (name, key), instrument in sorted(self._gauges.items()):
                value = instrument._snapshot()
                gauges[_format_key(name, key)] = (
                    None if math.isnan(value) else value)
            histograms = {
                _format_key(name, key): instrument._snapshot()
                for (name, key), instrument in sorted(self._histograms.items())
            }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize :meth:`snapshot` as a JSON string."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


#: The default process-wide registry used by the convenience functions.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """Return the process-wide default registry."""
    return _DEFAULT


def counter(name: str, **labels) -> Counter:
    """Get-or-create a counter on the default registry."""
    return _DEFAULT.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return _DEFAULT.gauge(name, **labels)


def histogram(name: str, buckets: Iterable[float] = DEFAULT_BUCKETS,
              **labels) -> Histogram:
    """Get-or-create a histogram on the default registry."""
    return _DEFAULT.histogram(name, buckets, **labels)
