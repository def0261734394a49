"""Configuration dataclasses for the resilient retrieval plane.

These are half of the PR's API redesign: instead of threading a growing
pile of kwargs through ``RetrievalEngine`` → ``ShardedGallery`` →
``DataNode``, callers build one frozen :class:`ResilienceConfig` (with
nested :class:`RetryPolicy` / :class:`BreakerPolicy`) and hand it to
``RetrievalEngine(..., resilience=cfg)`` or
``RetrievalService.build(..., resilience=cfg)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class RetryPolicy:
    """Per-node retry with exponential backoff and deterministic jitter.

    Backoff before attempt ``a`` (1-indexed; the first attempt never
    waits) is ``min(backoff_max_s, backoff_base_s * 2**(a-2))`` scaled by
    ``1 + jitter * u`` with ``u ~ U[0, 1)`` a pure function of ``(seed,
    node_id, logical query id, attempt)`` — the same seed always produces
    the same backoff timeline, which the determinism tests rely on.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.001
    backoff_max_s: float = 0.05
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff durations must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker thresholds (closed → open → half-open → closed).

    ``failure_threshold`` consecutive failures open the breaker; after
    ``cooldown_s`` on the breaker's clock it admits one half-open probe,
    closing on success and re-opening on failure.
    """

    failure_threshold: int = 5
    cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the retrieval plane needs to degrade gracefully.

    Parameters
    ----------
    replication:
        Number of nodes each gallery row is stored on (consecutive
        round-robin placement).  With ``r`` replicas, retrieval stays
        *exact* while at least one replica of every shard is live.
    retry:
        Per-node retry policy; ``None`` disables retries.
    breaker:
        Per-node circuit breaker policy; ``None`` disables breakers.
    deadline_s:
        Per-query, per-node deadline.  A node attempt whose (real +
        fault-injected) latency exceeds it fails with
        :class:`~repro.errors.DeadlineExceeded` and is retried.
    hedge_after_s:
        Hedged-read threshold.  A node slower than this is dropped from
        the merge whenever its shards are fully covered by faster live
        replicas (a "hedge win"); kept otherwise.  ``None`` disables
        hedging.
    on_data_loss:
        What to do when some shard has **no** live replica: ``"raise"``
        (default) raises :class:`~repro.errors.RetrievalUnavailable` so
        attack loops can checkpoint and resume; ``"degrade"`` serves the
        partial merge (the pre-resilience behaviour).
    """

    replication: int = 1
    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy | None = field(default_factory=BreakerPolicy)
    deadline_s: float | None = None
    hedge_after_s: float | None = None
    on_data_loss: str = "raise"

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError("hedge_after_s must be positive")
        if self.on_data_loss not in ("raise", "degrade"):
            raise ValueError("on_data_loss must be 'raise' or 'degrade'")

    def with_(self, **changes) -> "ResilienceConfig":
        """A copy with ``changes`` applied (dataclasses.replace sugar)."""
        return replace(self, **changes)


__all__ = ["RetryPolicy", "BreakerPolicy", "ResilienceConfig"]
