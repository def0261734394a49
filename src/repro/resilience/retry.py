"""Deterministic per-node retry with exponential backoff + jitter.

Only *transient* retrieval faults are retried: :class:`NodeDownError`
(flaky node, outage window) and :class:`DeadlineExceeded` (slow attempt;
the next attempt draws a fresh latency).  Budget errors and breaker
short-circuits propagate immediately.

Jitter is a pure function of ``(policy.seed, node_id, logical query
id, attempt)`` (:func:`~repro.utils.seeding.keyed_rng`), so a given
configuration always produces the same backoff timeline however queries
are batched — the property the fault-plan determinism tests assert end
to end.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

from repro.errors import DeadlineExceeded, NodeDownError
from repro.obs import counter, histogram
from repro.resilience.config import RetryPolicy
from repro.utils.seeding import keyed_rng

T = TypeVar("T")

#: Exceptions worth another attempt.
RETRYABLE = (NodeDownError, DeadlineExceeded)

#: Backoff delays are milliseconds-flavoured at simulation scale.
BACKOFF_BUCKETS = (1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0)


class RetryExecutor:
    """Runs node calls under a :class:`RetryPolicy`.

    One executor per node: the node id keys the jitter draws, and
    per-node retry counters label cleanly.
    """

    def __init__(self, policy: RetryPolicy | None = None, node_id: str = "",
                 sleep: Callable[[float], None] | None = None) -> None:
        self.policy = policy or RetryPolicy()
        self.node_id = str(node_id)
        self.sleep = sleep if sleep is not None else time.sleep

    def backoff_s(self, attempt: int, query: int = 0) -> float:
        """Backoff before 1-indexed ``attempt`` of logical query
        ``query`` (0.0 for the first)."""
        if attempt <= 1:
            return 0.0
        base = min(self.policy.backoff_max_s,
                   self.policy.backoff_base_s * 2.0 ** (attempt - 2))
        draw = keyed_rng(self.policy.seed, f"retry/{self.node_id}", query,
                         attempt).random()
        return base * (1.0 + self.policy.jitter * float(draw))

    def run(self, fn: Callable[[], T], query: int = 0) -> T:
        """Call ``fn`` up to ``max_attempts`` times for logical query
        ``query``; re-raise the last error.

        The first attempt is a bare call: backoff and bookkeeping start
        only after a transient failure.
        """
        for attempt in range(1, self.policy.max_attempts + 1):
            if attempt > 1:
                counter("resilience.retries", node=self.node_id).inc()
                delay = self.backoff_s(attempt, query)
                if delay > 0.0:
                    histogram("resilience.retry_backoff_s",
                              buckets=BACKOFF_BUCKETS,
                              node=self.node_id).observe(delay)
                    self.sleep(delay)
            try:
                result = fn()
            except RETRYABLE as exc:
                last = exc
                continue
            if attempt > 1:
                counter("resilience.retry_successes", node=self.node_id).inc()
            return result
        raise last


__all__ = ["RetryExecutor", "RETRYABLE", "BACKOFF_BUCKETS"]
