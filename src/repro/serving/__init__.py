"""repro.serving — deterministic traffic front end for retrieval.

The layer between tenants and :class:`~repro.retrieval.service.RetrievalService`:
one virtual-clock event-loop scheduler that coalesces concurrent queries
into micro-batches and runs them on a worker pool, per-tenant admission
control (token-bucket rate limits and query budgets under the service's
global budget), and a bounded queue with priority-aware load shedding.  Batching is provably
cosmetic — the ``serving.batched_vs_sequential`` qa oracle replays every
timeline sequentially (:func:`repro.qa.reference.replay_sequential`) and
demands identical retrieval lists and ledgers.

>>> from repro.serving import ServingFrontend, ServingConfig, Request
>>> frontend = ServingFrontend(service, ServingConfig(max_batch_size=8))
>>> report = frontend.run(requests)
>>> report.throughput_qps, report.latency_percentile(99)
"""

from repro.serving.admission import (
    AdmissionController,
    Rejection,
    TenantLedger,
    TokenBucket,
)
from repro.serving.clock import VirtualClock
from repro.serving.config import (
    PRIORITIES,
    ServingConfig,
    TenantPolicy,
)
from repro.serving.events import (
    AddVideo,
    DeleteVideo,
    GalleryEvent,
    ReembedVideo,
    generate_churn,
    merge_timeline,
)
from repro.serving.frontend import (
    Request,
    Response,
    ServingFrontend,
    ServingReport,
)
from repro.serving.pool import WorkerPool
from repro.serving.queue import BoundedQueue
from repro.serving.workload import (
    TenantSpec,
    closed_spaced_timeline,
    generate_timeline,
)

__all__ = [
    "AddVideo",
    "AdmissionController",
    "BoundedQueue",
    "DeleteVideo",
    "GalleryEvent",
    "PRIORITIES",
    "ReembedVideo",
    "Rejection",
    "Request",
    "Response",
    "ServingConfig",
    "ServingFrontend",
    "ServingReport",
    "TenantLedger",
    "TenantPolicy",
    "TenantSpec",
    "TokenBucket",
    "VirtualClock",
    "WorkerPool",
    "closed_spaced_timeline",
    "generate_churn",
    "generate_timeline",
    "merge_timeline",
]
