"""The deterministic traffic front end over :class:`RetrievalService`.

This is the API surface the paper's attacker actually faces in
production: many tenants submit queries concurrently, an admission layer
rate-limits and budgets each of them, a bounded queue absorbs bursts,
and a micro-batching scheduler coalesces admitted queries into
``engine.retrieve_batch`` dispatches under a max-batch-size /
max-wait-time policy.

Everything runs on a :class:`~repro.serving.clock.VirtualClock` driven
by an event loop, so a request timeline replays bit-identically: same
admission decisions, same batch boundaries, same latency histograms.
The scheduler's core contract — enforced by the
``serving.batched_vs_sequential`` qa oracle — is that batching is purely
a performance transform: retrieval lists, per-tenant served counts, and
the service's query ledger are identical to the same timeline replayed
one query at a time against the bare service
(:func:`repro.qa.reference.replay_sequential`).

One event loop serves every configuration: a single worker is the
inline :class:`~repro.serving.pool.WorkerPool`, more workers run batch
compute on threads, and gallery events (live churn) interleave with
requests on the loop thread.

Failure semantics: a mid-batch :class:`~repro.errors.RetrievalUnavailable`
delivers the served prefix, fails exactly the interrupted request, and
*sheds* the rest of the batch and every queued request — with exact
refunds on both the service ledger (see
``RetrievalService.query_batch``) and the per-tenant ledgers, so the
qa budget-conservation invariant holds through an outage.  Shedding is
causal: it happens when the failing batch completes on the virtual
clock, so no shed response predates the ``unavailable`` one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    QueryBudgetExceeded,
    RetrievalUnavailable,
    ServiceOverloaded,
)
from repro.hashindex.compaction import CompactionPolicy
from repro.obs import counter, gauge, histogram, span
from repro.retrieval.lists import RetrievalList
from repro.retrieval.service import RetrievalService
from repro.serving.admission import AdmissionController
from repro.serving.clock import VirtualClock
from repro.serving.config import PRIORITIES, ServingConfig
from repro.serving.events import (
    GalleryEvent,
    apply_gallery_event,
    canonical_order,
)
from repro.serving.pool import WorkerPool
from repro.serving.queue import BoundedQueue
from repro.video.types import Video

#: Virtual-latency histogram buckets (milliseconds to seconds).
LATENCY_BUCKETS = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0)


@dataclass(frozen=True)
class Request:
    """One tenant query arriving at a virtual timestamp."""

    tenant: str
    video: Video
    arrival_s: float
    priority: str | None = None  # None → the tenant policy's default
    request_id: str = ""

    def __post_init__(self) -> None:
        if self.priority is not None and self.priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}")
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")


@dataclass
class Response:
    """The front end's answer to one request."""

    request: Request
    status: str  # "ok" | "rejected" | "shed" | "unavailable" | "budget"
    result: RetrievalList | None = None
    reason: str | None = None
    error: Exception | None = None
    retry_after_s: float | None = None
    completed_s: float | None = None
    latency_s: float | None = None
    batch_size: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ServingReport:
    """Everything one timeline replay produced."""

    responses: list[Response]
    served_by_tenant: dict[str, int]
    makespan_s: float
    batches: int
    dispatched: int
    workers: int = 1
    gallery_events: int = 0

    @property
    def served(self) -> int:
        return sum(1 for r in self.responses if r.ok)

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.responses if r.status == "rejected")

    @property
    def shed(self) -> int:
        return sum(1 for r in self.responses if r.status == "shed")

    @property
    def shed_rate(self) -> float:
        total = len(self.responses)
        return (self.shed / total) if total else 0.0

    @property
    def throughput_qps(self) -> float:
        """Served queries per *virtual* second of makespan."""
        return self.served / self.makespan_s if self.makespan_s > 0 else 0.0

    def latencies(self, priority: str | None = None) -> list[float]:
        return [
            r.latency_s for r in self.responses
            if r.ok and (priority is None
                         or (r.request.priority or "interactive") == priority)
        ]

    def latency_percentile(self, q: float,
                           priority: str | None = None) -> float:
        values = self.latencies(priority)
        return float(np.percentile(values, q)) if values else float("nan")

    def mean_batch_size(self) -> float:
        return self.dispatched / self.batches if self.batches else 0.0


class ServingFrontend:
    """Micro-batching scheduler + admission control over one service.

    A front end is stateless between :meth:`run` calls: each call builds
    a fresh clock, queue, and admission ledger, so the same timeline
    always produces the same report.
    """

    def __init__(self, service: RetrievalService,
                 config: ServingConfig | None = None) -> None:
        self.service = service
        self.config = config if config is not None else ServingConfig()

    # -------------------------------------------------------------- #
    # Event loop
    # -------------------------------------------------------------- #
    def run(self, items: "list[Request | GalleryEvent]") -> ServingReport:
        """Replay a timeline through the scheduler.

        ``items`` may mix :class:`Request`s with
        :class:`~repro.serving.events.GalleryEvent` mutations.  One event
        loop serves every configuration; ``workers=1`` runs it on the
        inline :class:`~repro.serving.pool.WorkerPool`.

        Determinism contract: admission, snapshot pinning, and gallery
        mutation all happen on the loop thread at *arrival* virtual
        times (the canonical
        :func:`~repro.serving.events.merge_timeline` order); service
        accounting happens at dispatch in dispatch order; workers run
        only pure compute on pinned snapshots; completions settle in
        virtual-time order.  Worker count therefore changes wall-clock
        throughput and virtual latencies, never statuses, rankings, or
        ledgers — enforced by the ``serving.pooled_vs_single`` and
        ``serving.mutating_timeline`` oracles.
        """
        config = self.config
        engine = self.service.engine
        arrivals = canonical_order(items)
        events = [item for index, item in arrivals if index is None]
        num_requests = len(arrivals) - len(events)
        churn = bool(events) or config.churn
        if churn:
            engine.enable_churn()
        policy = CompactionPolicy(config.compact_dead_fraction,
                                  config.compact_min_dead)
        pool = WorkerPool(self._effective_workers(events))
        clock = VirtualClock()
        queue = BoundedQueue(config.queue_capacity, config.shed_policy)
        admission = AdmissionController(config)
        state = _RunState(clock=clock, queue=queue, admission=admission,
                          pool=pool, churn=churn)
        inflight = state.inflight
        applied = 0

        # Pin the extractors in eval for the whole run: embed_videos
        # flips train→eval→train per call, and with workers > 1 one
        # thread's restore would put another thread's in-flight forward
        # into training-mode batchnorm (batch-statistic normalization).
        training = [member.extractor for member in _members(engine)
                    if member.extractor.training] if pool.workers > 1 else []
        for extractor in training:
            extractor.eval()
        try:
            with span("serving.run", requests=num_requests,
                      events=len(events)), pool:
                cursor, pending = 0, len(arrivals)
                while cursor < pending or len(queue) or inflight:
                    now = clock.now_s
                    # Earliest action wins; ties settle (0) < arrival (1)
                    # < dispatch (2): a completion frees its worker before
                    # new work lands.
                    when, action = math.inf, 0
                    if inflight:
                        when = max(inflight[0][0], now)
                    if cursor < pending:
                        arrival_s = max(arrivals[cursor][1].arrival_s, now)
                        if arrival_s < when:
                            when, action = arrival_s, 1
                    queued = len(queue)
                    if queued:
                        if queued >= config.max_batch_size or \
                                cursor >= pending:
                            ready_s = now
                        else:
                            ready_s = queue.oldest_enqueued_s + \
                                config.max_wait_s
                        dispatch_s = max(ready_s, pool.min_free_s, now)
                        if dispatch_s < when:
                            when, action = dispatch_s, 2
                    clock.advance_to(when)
                    if action == 0:
                        done_s, _, flight = heapq.heappop(inflight)
                        self._settle_flight(state, flight, done_s)
                    elif action == 1:
                        index, item = arrivals[cursor]
                        cursor += 1
                        if index is None:
                            apply_gallery_event(engine, item, policy)
                            applied += 1
                        else:
                            self._admit(state, index, item)
                            if churn and index not in state.responses:
                                state.snapshots[index] = \
                                    engine.gallery.snapshot()
                    else:
                        self._dispatch(state)
        finally:
            for extractor in training:
                extractor.train()

        ordered = [state.responses[index] for index in range(num_requests)]
        makespan = max(
            [clock.now_s] + list(pool.free_at_s)
            + [r.completed_s for r in ordered if r.completed_s is not None]
            + [event.arrival_s for event in events])
        return ServingReport(
            responses=ordered,
            served_by_tenant=admission.served_by_tenant(),
            makespan_s=makespan,
            batches=state.batches,
            dispatched=state.dispatched,
            workers=pool.workers,
            gallery_events=applied,
        )

    def _effective_workers(self, events: list) -> int:
        """The worker count after safety fallbacks.

        Three situations force single-worker execution (the inline pool,
        so everything stays on the loop thread):

        * an installed fault plan — fault clocks and breaker state are
          scatter-order-dependent and not thread-safe;
        * an instance-level ``service.query`` override — instrumented
          services route through the override per video, which touches
          service counters and must not run concurrently;
        * gallery events on a compressed index tier — binary/IVF-PQ
          indexes are not hardened for appends concurrent with reads
          (the exact tier's grow-only matrix cache is).
        """
        workers = self.config.workers
        if workers == 1:
            return 1
        service = self.service
        galleries = [member.gallery for member in _members(service.engine)]
        reason = None
        if any(getattr(gallery, "fault_plan", None) is not None
               for gallery in galleries):
            reason = "fault_plan"
        elif "query" in service.__dict__:
            reason = "query_override"
        elif events and any(gallery.index_tier != "exact"
                            for gallery in galleries):
            reason = "compressed_tier"
        if reason is None:
            return workers
        counter("serving.pool_fallbacks", reason=reason).inc()
        return 1

    def _dispatch(self, state: "_RunState") -> None:
        """Pop a batch, account it on the loop thread, hand compute to a
        worker, and book the completion on the virtual timeline."""
        config, clock, pool = self.config, state.clock, state.pool
        entries = state.queue.pop_batch(config.max_batch_size)
        gauge("serving.queue_depth").set(len(state.queue))
        batch = [item for item, _ in entries]

        # Global-budget pre-split: a sequential loop would have each
        # over-budget query raise QueryBudgetExceeded *before* issuing
        # it, so those requests never reach the service at all.
        budget = self.service.query_budget
        room = len(batch) if budget is None else \
            max(0, budget - self.service.query_count)
        for index, request in batch[room:]:
            state.admission.refund(request.tenant)
            counter("serving.rejected", tenant=request.tenant,
                    reason="global_budget").inc()
            state.responses[index] = Response(
                request, "budget", reason="global_budget",
                error=QueryBudgetExceeded("service query budget exhausted"),
                completed_s=clock.now_s)
        batch = batch[:room]
        if not batch:
            return

        cost_s = config.service_base_s + \
            config.service_per_item_s * len(batch)
        done_s = pool.occupy(pool.pick_worker(), clock.now_s, cost_s)
        state.batches += 1
        state.dispatched += len(batch)
        counter("serving.pool_dispatches").inc()
        histogram("serving.batch_size",
                  buckets=(1, 2, 4, 8, 16, 32, 64)).observe(len(batch))

        videos = [request.video for _, request in batch]
        if "query" in self.service.__dict__:
            # Instrumented service: route through query_batch, which
            # falls back to the per-video override (accounting inside).
            # _effective_workers already forced the inline pool.
            future = pool.submit(self.service.query_batch, videos)
            preaccounted = False
        else:
            pinned = [state.snapshots.get(index) for index, _ in batch] \
                if state.churn else None
            prepared = self.service.begin_batch(videos)
            future = pool.submit(self.service.compute_batch, prepared,
                                 None, pinned)
            preaccounted = True
        # ``state.batches`` is unique per dispatch: it breaks completion
        # ties in dispatch order.
        heapq.heappush(state.inflight, (done_s, state.batches,
                                        _Flight(batch, future, preaccounted)))

    # The benchmark's per-layer clock wraps both ``_dispatch`` and
    # ``_dispatch_pooled`` by name, so the second name must keep
    # resolving to the one dispatch body.
    _dispatch_pooled = _dispatch

    def _settle_flight(self, state: "_RunState", flight: "_Flight",
                       done_s: float) -> None:
        """Deliver one completed batch at its virtual completion time."""
        batch = flight.batch
        try:
            results = flight.future.result()
        except RetrievalUnavailable as exc:
            if flight.preaccounted:
                self.service.settle_interrupted(
                    len(batch), int(getattr(exc, "served_count", 0)))
            self._settle_outage(state, batch, exc, done_s)
            return
        for (index, request), result in zip(batch, results):
            self._deliver(state, index, request, result, done_s, len(batch))

    # -------------------------------------------------------------- #
    # Arrival handling
    # -------------------------------------------------------------- #
    def _admit(self, state: "_RunState", index: int,
               request: Request) -> None:
        clock, queue, admission = state.clock, state.queue, state.admission
        clock.advance_to(max(clock.now_s, request.arrival_s))
        now = clock.now_s
        tenant = request.tenant
        counter("serving.requests", tenant=tenant).inc()
        rejection = admission.admit(tenant, now)
        if rejection is not None:
            error = ServiceOverloaded(
                f"tenant {tenant!r} {rejection.reason}",
                retry_after_s=rejection.retry_after_s) \
                if rejection.reason != "tenant_budget" else \
                QueryBudgetExceeded(f"tenant {tenant!r} budget exhausted")
            state.responses[index] = Response(
                request, "rejected", reason=rejection.reason, error=error,
                retry_after_s=rejection.retry_after_s, completed_s=now)
            return
        priority = request.priority or admission.ledger(tenant).policy.priority
        try:
            evicted = queue.push((index, request), priority, now)
        except OverflowError:
            admission.refund(tenant)
            # Nothing leaves the queue before a worker frees up.
            retry_after = max(state.pool.min_free_s - now, 0.0) + \
                self.config.max_wait_s
            counter("serving.rejected", tenant=tenant,
                    reason="queue_full").inc()
            state.responses[index] = Response(
                request, "rejected", reason="queue_full",
                error=ServiceOverloaded("admission queue full",
                                        retry_after_s=retry_after),
                retry_after_s=retry_after, completed_s=now)
            return
        if evicted is not None:
            shed_index, shed_request = evicted
            self._shed(state, shed_index, shed_request, "priority_eviction")
        gauge("serving.queue_depth").set(len(queue))

    def _shed(self, state: "_RunState", index: int, request: Request,
              reason: str) -> None:
        """Drop an admitted-but-unserved request, refunding its tenant."""
        state.admission.refund(request.tenant)
        counter("serving.shed", reason=reason).inc()
        retry_after = self.config.max_wait_s
        state.responses[index] = Response(
            request, "shed", reason=reason,
            error=ServiceOverloaded(f"request shed ({reason})",
                                    retry_after_s=retry_after),
            retry_after_s=retry_after, completed_s=state.clock.now_s)

    def _deliver(self, state: "_RunState", index: int, request: Request,
                 result: RetrievalList, done_s: float,
                 batch_size: int) -> None:
        state.admission.mark_served(request.tenant)
        latency = done_s - request.arrival_s
        priority = request.priority or \
            state.admission.ledger(request.tenant).policy.priority
        histogram("serving.latency_s", buckets=LATENCY_BUCKETS,
                  priority=priority).observe(latency)
        state.responses[index] = Response(
            request, "ok", result=result, completed_s=done_s,
            latency_s=latency, batch_size=batch_size)

    def _settle_outage(self, state: "_RunState",
                       batch: list[tuple[int, Request]],
                       exc: RetrievalUnavailable, done_s: float) -> None:
        """Deliver the served prefix, fail the interrupted request, and
        shed the suffix plus everything still queued.

        ``RetrievalService.query_batch`` has already settled the service
        ledger with sequential semantics (prefix charged, failing query
        refunded, suffix never issued); here the per-tenant ledgers and
        responses follow suit.
        """
        served = list(getattr(exc, "served", []) or [])
        for (index, request), result in zip(batch, served):
            self._deliver(state, index, request, result, done_s, len(batch))
        failing_index, failing_request = batch[len(served)]
        state.admission.refund(failing_request.tenant)
        counter("serving.unavailable", tenant=failing_request.tenant).inc()
        state.responses[failing_index] = Response(
            failing_request, "unavailable", reason="retrieval_unavailable",
            error=exc, completed_s=done_s)
        for index, request in batch[len(served) + 1:]:
            self._shed(state, index, request, "outage")
        for index, request in state.queue.drain():
            self._shed(state, index, request, "outage")
        gauge("serving.queue_depth").set(0)


def _members(engine) -> tuple:
    """The retrieval engines behind a service: an ensemble's members."""
    return tuple(getattr(engine, "engines", (engine,)))


@dataclass
class _Flight:
    """One dispatched batch whose compute is (virtually) in flight."""

    batch: list
    future: object
    preaccounted: bool


@dataclass
class _RunState:
    """Mutable per-run scheduler state (one :meth:`run` call)."""

    clock: VirtualClock
    queue: BoundedQueue
    admission: AdmissionController
    pool: WorkerPool
    churn: bool
    responses: dict[int, Response] = field(default_factory=dict)
    #: request index → pinned GallerySnapshot (churn mode only).
    snapshots: dict[int, object] = field(default_factory=dict)
    #: ``(done_s, dispatch order, _Flight)`` heap of batches in flight.
    inflight: list = field(default_factory=list)
    batches: int = 0
    dispatched: int = 0


__all__ = ["Request", "Response", "ServingFrontend", "ServingReport",
           "LATENCY_BUCKETS"]
