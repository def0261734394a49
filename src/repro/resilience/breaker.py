"""Per-node circuit breaker (closed / open / half-open).

The coordinator keeps one breaker per data node.  While a node fails,
the breaker counts consecutive failures; at the threshold it *opens* and
the coordinator stops sending the node traffic (no retries burned on a
dead node).  After a cooldown the breaker goes *half-open* and admits a
single probe: success closes it, failure re-opens it for another
cooldown.

The clock is injectable so tests (and the fault-injection harness) can
drive state transitions deterministically without sleeping.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs import counter, gauge
from repro.resilience.config import BreakerPolicy

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Numeric encoding for the state gauge (closed=0, half-open=1, open=2).
_STATE_LEVELS = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """One node's breaker state machine."""

    def __init__(self, policy: BreakerPolicy | None = None,
                 node_id: str = "", clock: Callable[[], float] | None = None
                 ) -> None:
        self.policy = policy or BreakerPolicy()
        self.node_id = str(node_id)
        self.clock = clock if clock is not None else time.monotonic
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.trips = 0
        self._last_query: int | None = None

    def _set_state(self, state: str) -> None:
        self.state = state
        gauge("resilience.breaker_state", node=self.node_id).set(
            _STATE_LEVELS[state])

    def allow(self) -> bool:
        """Whether a request may be sent to the node right now.

        An open breaker whose cooldown has elapsed transitions to
        half-open and admits the caller as the probe.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.clock() - self.opened_at >= self.policy.cooldown_s:
                self._set_state(HALF_OPEN)
                counter("resilience.breaker_half_opens",
                        node=self.node_id).inc()
                return True
            return False
        # Half-open: one probe is already in flight per coordinator pass;
        # concurrent callers in this single-threaded repro just probe too.
        return True

    def _seen(self, query: int | None) -> bool:
        """Whether ``query`` is the logical id just recorded (a re-sent
        row counts once); records it."""
        repeat = query is not None and query == self._last_query
        self._last_query = query
        return repeat

    def record_success(self, query: int | None = None) -> None:
        """A request to the node succeeded."""
        if self._seen(query):
            return
        self.consecutive_failures = 0
        if self.state != CLOSED:
            self._set_state(CLOSED)
            counter("resilience.breaker_closes", node=self.node_id).inc()

    def record_failure(self, query: int | None = None) -> None:
        """A request to the node failed (after retries were exhausted)."""
        if self._seen(query):
            return
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or (
            self.state == CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self._set_state(OPEN)
        self.opened_at = self.clock()
        self.trips += 1
        counter("resilience.breaker_trips", node=self.node_id).inc()

    def reset(self) -> None:
        """Force the breaker back to a fresh closed state."""
        self.consecutive_failures = 0
        self.opened_at = None
        self._last_query = None
        self._set_state(CLOSED)


__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]
