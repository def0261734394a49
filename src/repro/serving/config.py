"""Configuration for the serving front end.

Follows the frozen-dataclass pattern of
:class:`~repro.retrieval.config.ServiceConfig` /
:class:`~repro.resilience.ResilienceConfig`: one :class:`ServingConfig`
per front end, with nested per-tenant :class:`TenantPolicy` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

#: Priority classes, best first.  Interactive requests are dispatched
#: before bulk ones queued at the same time, and bulk is shed first.
PRIORITIES = ("interactive", "bulk")


@dataclass(frozen=True)
class TenantPolicy:
    """Admission rules for one tenant (or the default for all others).

    Parameters
    ----------
    rate_per_s:
        Token-bucket refill rate in queries/second; ``None`` disables
        rate limiting for the tenant.
    burst:
        Token-bucket capacity — how many queries may arrive back-to-back
        before the rate limit bites.
    query_budget:
        Per-tenant cap on *served* queries, layered under the service's
        global budget.  Shed or failed requests hand their slot back.
    priority:
        Default priority class for the tenant's requests
        (``"interactive"`` or ``"bulk"``); a request may override it.
    """

    rate_per_s: float | None = None
    burst: int = 1
    query_budget: int | None = None
    priority: str = "interactive"

    def __post_init__(self) -> None:
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive (or None)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.query_budget is not None and self.query_budget < 0:
            raise ValueError("query_budget must be non-negative")
        if self.priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}")


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the traffic front end.

    Parameters
    ----------
    max_batch_size:
        Upper bound on queries coalesced into one
        ``engine.retrieve_batch`` dispatch.  ``1`` degenerates to a
        sequential front end (the oracle reference).
    max_wait_s:
        Micro-batch deadline: a queued request is dispatched no later
        than this many virtual seconds after it was enqueued, even if
        the batch is not full.
    queue_capacity:
        Bound on the admission queue.  Arrivals beyond it are shed
        according to ``shed_policy``.
    shed_policy:
        ``"shed-bulk"`` (default): an interactive arrival may evict the
        youngest queued bulk request; otherwise — and always for bulk
        arrivals — the newcomer is rejected.  ``"reject-new"``: the
        queue never evicts; newcomers bounce.
    service_base_s / service_per_item_s:
        Linear virtual cost of one dispatched batch
        (``base + per_item * batch``).  This is what makes batching pay
        on the virtual clock: 8 coalesced queries cost one base instead
        of eight.
    workers:
        Worker-pool size for dispatched batches.  ``1`` (the default)
        runs batch compute inline on the event-loop thread; ``> 1`` runs
        it on a thread pool leaning on the GIL-releasing BLAS kernels, with
        per-worker virtual clocks.  Semantics-invisible — see
        the ``serving.pooled_vs_single`` oracle.
    churn:
        Pin a gallery snapshot per admitted request even for pure-query
        timelines (mutating timelines pin on their own), for galleries
        mutated outside the event loop mid-run.  Off by default.
    compact_dead_fraction / compact_min_dead:
        Background compaction policy for mutating timelines: a shard is
        rebuilt once its tombstones pass both thresholds.
    tenants:
        Per-tenant :class:`TenantPolicy` overrides by tenant id.
    default_tenant:
        Policy for tenants without an explicit entry.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.002
    queue_capacity: int = 64
    shed_policy: str = "shed-bulk"
    service_base_s: float = 0.004
    service_per_item_s: float = 0.001
    workers: int = 1
    churn: bool = False
    compact_dead_fraction: float = 0.25
    compact_min_dead: int = 4
    tenants: Mapping[str, TenantPolicy] = field(default_factory=dict)
    default_tenant: TenantPolicy = field(default_factory=TenantPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "churn", bool(self.churn))
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not (0.0 < self.compact_dead_fraction <= 1.0):
            raise ValueError("compact_dead_fraction must be in (0, 1]")
        if self.compact_min_dead < 1:
            raise ValueError("compact_min_dead must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.shed_policy not in ("shed-bulk", "reject-new"):
            raise ValueError("shed_policy must be 'shed-bulk' or 'reject-new'")
        if self.service_base_s < 0 or self.service_per_item_s < 0:
            raise ValueError("service-time model must be non-negative")
        # Freeze the mapping so a shared config cannot drift mid-run.
        object.__setattr__(self, "tenants",
                           MappingProxyType(dict(self.tenants)))

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The effective :class:`TenantPolicy` for ``tenant``."""
        return self.tenants.get(tenant, self.default_tenant)

    def with_(self, **changes) -> "ServingConfig":
        """A copy with ``changes`` applied (dataclasses.replace sugar)."""
        return replace(self, **changes)


__all__ = ["ServingConfig", "TenantPolicy", "PRIORITIES"]
