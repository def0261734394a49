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
(:func:`replay_sequential`).

Failure semantics: a mid-batch :class:`~repro.errors.RetrievalUnavailable`
delivers the served prefix, fails exactly the interrupted request, and
*sheds* the rest of the batch and every queued request — with exact
refunds on both the service ledger (see
``RetrievalService.query_batch``) and the per-tenant ledgers, so the
qa budget-conservation invariant holds through an outage.
"""

from __future__ import annotations

import heapq
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
from repro.serving.events import GalleryEvent, apply_gallery_event
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
        :class:`~repro.serving.events.GalleryEvent` mutations.  A pure
        request timeline on a single-worker, churn-free config runs the
        original single-server loop unchanged (bit-identical schedules);
        anything else — ``config.workers > 1``, ``config.churn``, or any
        gallery event in the timeline — routes to the pooled scheduler.
        """
        requests = [item for item in items
                    if not isinstance(item, GalleryEvent)]
        events = [item for item in items if isinstance(item, GalleryEvent)]
        if not events and self.config.workers == 1 and not self.config.churn:
            return self._run_legacy(requests)
        return self._run_pooled(requests, events)

    def _run_legacy(self, requests: list[Request]) -> ServingReport:
        """The original single-server scheduler (static galleries)."""
        config = self.config
        clock = VirtualClock()
        queue = BoundedQueue(config.queue_capacity, config.shed_policy)
        admission = AdmissionController(config)
        arrivals = sorted(enumerate(requests),
                          key=lambda pair: pair[1].arrival_s)
        responses: dict[int, Response] = {}
        state = _RunState(clock=clock, queue=queue, admission=admission,
                          responses=responses)

        with span("serving.run", requests=len(requests)):
            cursor = 0
            while cursor < len(arrivals) or len(queue):
                if not len(queue):
                    if cursor >= len(arrivals):
                        break
                    self._admit(state, *arrivals[cursor])
                    cursor += 1
                    continue
                if len(queue) >= config.max_batch_size or \
                        cursor >= len(arrivals):
                    ready_s = clock.now_s
                else:
                    ready_s = queue.oldest_enqueued_s + config.max_wait_s
                dispatch_s = max(ready_s, state.free_at_s, clock.now_s)
                if cursor < len(arrivals) and \
                        arrivals[cursor][1].arrival_s <= dispatch_s:
                    self._admit(state, *arrivals[cursor])
                    cursor += 1
                    continue
                clock.advance_to(dispatch_s)
                self._dispatch(state)

        ordered = [responses[index] for index in range(len(requests))]
        makespan = max(
            [clock.now_s, state.free_at_s]
            + [r.completed_s for r in ordered if r.completed_s is not None])
        return ServingReport(
            responses=ordered,
            served_by_tenant=admission.served_by_tenant(),
            makespan_s=makespan,
            batches=state.batches,
            dispatched=state.dispatched,
        )

    # -------------------------------------------------------------- #
    # Pooled event loop (worker pool + live gallery churn)
    # -------------------------------------------------------------- #
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

    def _run_pooled(self, requests: list[Request],
                    events: list[GalleryEvent]) -> ServingReport:
        """Scheduler with per-worker virtual clocks and gallery events.

        Determinism contract: admission, snapshot pinning, and gallery
        mutation all happen on the loop thread at *arrival* virtual
        times (events before requests on ties — the canonical
        :func:`~repro.serving.events.merge_timeline` order); service
        accounting happens at dispatch in dispatch order; workers run
        only pure compute on pinned snapshots; completions settle in
        virtual-time order.  Worker count therefore changes wall-clock
        throughput and virtual latencies, never statuses, rankings, or
        ledgers — enforced by the ``serving.pooled_vs_single`` and
        ``serving.mutating_timeline`` oracles.
        """
        config = self.config
        service = self.service
        engine = service.engine
        churn = bool(events) or config.churn
        workers = self._effective_workers(events)
        if churn:
            engine.enable_churn()
        policy = CompactionPolicy(config.compact_dead_fraction,
                                  config.compact_min_dead)

        clock = VirtualClock()
        queue = BoundedQueue(config.queue_capacity, config.shed_policy)
        admission = AdmissionController(config)
        responses: dict[int, Response] = {}
        state = _RunState(clock=clock, queue=queue, admission=admission,
                          responses=responses)
        #: request index → pinned GallerySnapshot (churn mode only).
        snapshots: dict[int, object] = {}

        # Canonical merged arrival order: time, then events before
        # requests, then original order (same key as merge_timeline).
        arrivals = [(event.arrival_s, 0, order, None, event)
                    for order, event in enumerate(events)]
        arrivals += [(request.arrival_s, 1, order, order, request)
                     for order, request in enumerate(requests)]
        arrivals.sort(key=lambda entry: entry[:3])

        inflight: list[tuple[float, int, _Flight]] = []
        seq = 0
        applied = 0

        # Pin the extractors in eval for the whole run: embed_videos
        # flips train→eval→train per call, and with workers > 1 one
        # thread's restore would put another thread's in-flight forward
        # into training-mode batchnorm (batch-statistic normalization).
        training = [member.extractor for member in _members(engine)
                    if member.extractor.training] if workers > 1 else []
        for extractor in training:
            extractor.eval()
        try:
            with span("serving.run", requests=len(requests),
                      events=len(events)), WorkerPool(workers) as pool:
                cursor = 0
                while cursor < len(arrivals) or len(queue) or inflight:
                    next_done = inflight[0][0] if inflight else None
                    next_arrival = arrivals[cursor][0] \
                        if cursor < len(arrivals) else None
                    dispatch_s = None
                    if len(queue):
                        if len(queue) >= config.max_batch_size or \
                                cursor >= len(arrivals):
                            ready_s = clock.now_s
                        else:
                            ready_s = queue.oldest_enqueued_s + \
                                config.max_wait_s
                        dispatch_s = max(ready_s, pool.min_free_s,
                                         clock.now_s)
                    # Earliest action wins; ties settle < arrival <
                    # dispatch (a completion frees its worker before new
                    # work lands).
                    candidates = []
                    if next_done is not None:
                        candidates.append((max(next_done, clock.now_s), 0))
                    if next_arrival is not None:
                        candidates.append((max(next_arrival, clock.now_s), 1))
                    if dispatch_s is not None:
                        candidates.append((dispatch_s, 2))
                    when, action = min(candidates)
                    clock.advance_to(when)
                    if action == 0:
                        done_s, _, flight = heapq.heappop(inflight)
                        self._settle_flight(state, flight, done_s)
                    elif action == 1:
                        _, kind, _, index, item = arrivals[cursor]
                        cursor += 1
                        if kind == 0:
                            apply_gallery_event(engine, item, policy)
                            applied += 1
                        else:
                            self._admit(state, index, item)
                            if churn and index not in responses:
                                snapshots[index] = engine.gallery.snapshot()
                    else:
                        seq = self._dispatch_pooled(state, pool, inflight,
                                                    seq, snapshots, churn)
        finally:
            for extractor in training:
                extractor.train()

        ordered = [responses[index] for index in range(len(requests))]
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

    def _dispatch_pooled(self, state: "_RunState", pool: WorkerPool,
                         inflight: list, seq: int, snapshots: dict,
                         churn: bool) -> int:
        """Pop a batch, account it on the loop thread, hand compute to a
        worker, and book the completion on the virtual timeline."""
        config, clock = self.config, state.clock
        entries = state.queue.pop_batch(config.max_batch_size)
        gauge("serving.queue_depth").set(len(state.queue))
        batch = [item for item, _ in entries]

        # Global-budget pre-split, identical to the legacy scheduler.
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
            return seq

        cost_s = config.service_base_s + \
            config.service_per_item_s * len(batch)
        worker = pool.pick_worker()
        done_s = pool.occupy(worker, clock.now_s, cost_s)
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
            pinned = [snapshots.get(index) for index, _ in batch] \
                if churn else None
            prepared = self.service.begin_batch(videos)
            future = pool.submit(self.service.compute_batch, prepared,
                                 None, pinned)
            preaccounted = True
        heapq.heappush(inflight,
                       (done_s, seq, _Flight(batch, future, preaccounted)))
        return seq + 1

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
            retry_after = max(state.free_at_s - now, 0.0) + self.config.max_wait_s
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

    # -------------------------------------------------------------- #
    # Dispatch
    # -------------------------------------------------------------- #
    def _dispatch(self, state: "_RunState") -> None:
        config, clock = self.config, state.clock
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
        done_s = clock.now_s + cost_s
        state.free_at_s = done_s
        state.batches += 1
        state.dispatched += len(batch)
        histogram("serving.batch_size",
                  buckets=(1, 2, 4, 8, 16, 32, 64)).observe(len(batch))
        try:
            results = self.service.query_batch(
                [request.video for _, request in batch])
        except RetrievalUnavailable as exc:
            self._settle_outage(state, batch, exc, done_s)
            return
        for (index, request), result in zip(batch, results):
            self._deliver(state, index, request, result, done_s, len(batch))

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
    responses: dict[int, Response]
    free_at_s: float = 0.0
    batches: int = 0
    dispatched: int = 0


# ------------------------------------------------------------------ #
# The sequential reference
# ------------------------------------------------------------------ #
def replay_sequential(requests: list[Request], service: RetrievalService,
                      config: ServingConfig | None = None) -> ServingReport:
    """Replay a timeline one query at a time against a bare service.

    This is the oracle reference for :class:`ServingFrontend`: the same
    admission rules (token buckets and tenant budgets depend only on
    arrival times, so their decisions are batching-invariant), but every
    admitted request goes straight through ``service.query`` in arrival
    order with no queueing or coalescing.  Under a no-shed load the
    micro-batched front end must match it exactly — retrieval lists,
    per-tenant served counts, and the service's query ledger.
    """
    config = config if config is not None else ServingConfig()
    admission = AdmissionController(config)
    arrivals = sorted(enumerate(requests), key=lambda pair: pair[1].arrival_s)
    responses: dict[int, Response] = {}
    served = 0
    last_s = 0.0
    for index, request in arrivals:
        now = request.arrival_s
        last_s = max(last_s, now)
        counter("serving.requests", tenant=request.tenant).inc()
        rejection = admission.admit(request.tenant, now)
        if rejection is not None:
            responses[index] = Response(
                request, "rejected", reason=rejection.reason,
                retry_after_s=rejection.retry_after_s, completed_s=now)
            continue
        try:
            result = service.query(request.video)
        except QueryBudgetExceeded as exc:
            admission.refund(request.tenant)
            responses[index] = Response(request, "budget",
                                        reason="global_budget", error=exc,
                                        completed_s=now)
            continue
        except RetrievalUnavailable as exc:
            admission.refund(request.tenant)
            responses[index] = Response(request, "unavailable",
                                        reason="retrieval_unavailable",
                                        error=exc, completed_s=now)
            continue
        admission.mark_served(request.tenant)
        served += 1
        responses[index] = Response(request, "ok", result=result,
                                    completed_s=now, latency_s=0.0,
                                    batch_size=1)
    return ServingReport(
        responses=[responses[index] for index in range(len(requests))],
        served_by_tenant=admission.served_by_tenant(),
        makespan_s=last_s,
        batches=served,
        dispatched=served,
    )


__all__ = ["Request", "Response", "ServingFrontend", "ServingReport",
           "replay_sequential", "LATENCY_BUCKETS"]
