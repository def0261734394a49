"""ServingFrontend: scheduling, equivalence, failure and budget paths."""

import numpy as np
import pytest

from repro.errors import (
    QueryBudgetExceeded,
    RetrievalUnavailable,
    ServiceOverloaded,
)
from repro.obs import counter
from repro.qa.reference import replay_sequential
from repro.qa.world import build_world
from repro.resilience import FaultPlan
from repro.serving import (
    Request,
    ServingConfig,
    ServingFrontend,
    TenantPolicy,
    TenantSpec,
    closed_spaced_timeline,
    generate_timeline,
)


def _statuses(report):
    return [response.status for response in report.responses]


class TestScheduling:
    def test_full_batches_coalesce(self, world, query_videos):
        requests = closed_spaced_timeline(["a", "b"], query_videos, 4, 1e-4)
        config = ServingConfig(max_batch_size=4, max_wait_s=0.05)
        report = ServingFrontend(world.service, config).run(requests)
        assert report.served == 8
        assert report.batches == 2
        assert {response.batch_size for response in report.responses} == {4}

    def test_max_wait_deadline_flushes_partial_batch(self, world,
                                                     query_videos):
        # Two arrivals far apart: each must be flushed alone once its
        # max_wait deadline passes, not held for a full batch.
        requests = [
            Request("a", query_videos[0], arrival_s=0.0),
            Request("a", query_videos[1], arrival_s=1.0),
        ]
        config = ServingConfig(max_batch_size=8, max_wait_s=0.01,
                               service_base_s=0.004,
                               service_per_item_s=0.001)
        report = ServingFrontend(world.service, config).run(requests)
        assert report.batches == 2
        first, second = report.responses
        # The first request waits out its max_wait deadline (a later
        # arrival might still join the batch); the second is the last
        # arrival, so nothing can join and it dispatches immediately.
        assert first.completed_s == pytest.approx(0.01 + 0.005)
        assert second.completed_s == pytest.approx(1.0 + 0.005)

    def test_deterministic_replay(self, query_videos):
        specs = [TenantSpec("fast", 300.0, 12),
                 TenantSpec("slow", 80.0, 6, priority="bulk")]
        timeline = generate_timeline(5, specs, query_videos)
        config = ServingConfig(max_batch_size=4, queue_capacity=16)
        reports = [
            ServingFrontend(build_world(31).service, config).run(timeline)
            for _ in range(2)
        ]
        assert _statuses(reports[0]) == _statuses(reports[1])
        assert [r.completed_s for r in reports[0].responses] == \
            [r.completed_s for r in reports[1].responses]
        assert reports[0].makespan_s == reports[1].makespan_s
        assert reports[0].served_by_tenant == reports[1].served_by_tenant

    def test_report_statistics(self, world, query_videos):
        requests = closed_spaced_timeline(["a"], query_videos, 6, 1e-4)
        config = ServingConfig(max_batch_size=3, max_wait_s=0.001)
        report = ServingFrontend(world.service, config).run(requests)
        assert report.throughput_qps > 0
        latencies = report.latencies()
        assert len(latencies) == 6
        assert report.latency_percentile(50) <= report.latency_percentile(99)
        assert report.mean_batch_size() == pytest.approx(
            report.dispatched / report.batches)
        assert report.shed_rate == 0.0


class TestSequentialEquivalence:
    def test_matches_sequential_replay(self, query_videos):
        specs = [TenantSpec("alice", 250.0, 8),
                 TenantSpec("bob", 120.0, 6),
                 TenantSpec("mallory", 400.0, 8)]
        timeline = generate_timeline(9, specs, query_videos)
        config = ServingConfig(
            max_batch_size=4, max_wait_s=0.002, queue_capacity=128,
            tenants={"mallory": TenantPolicy(rate_per_s=150.0, burst=2)})

        batched_world = build_world(31)
        sequential_world = build_world(31)
        batched = ServingFrontend(batched_world.service, config).run(timeline)
        sequential = replay_sequential(timeline, sequential_world.service,
                                       config)

        assert _statuses(batched) == _statuses(sequential)
        assert batched.served_by_tenant == sequential.served_by_tenant
        for ours, theirs in zip(batched.responses, sequential.responses):
            if ours.ok:
                assert ours.result.ids == theirs.result.ids
        for attr in ("query_count", "queries_issued", "queries_refunded"):
            assert getattr(batched_world.service, attr) == \
                getattr(sequential_world.service, attr), attr


class TestAdmissionPaths:
    def test_rate_limited_request_carries_retry_after(self, world,
                                                      query_videos):
        config = ServingConfig(
            max_batch_size=2,
            default_tenant=TenantPolicy(rate_per_s=10.0, burst=1))
        requests = [Request("t", query_videos[0], 0.0),
                    Request("t", query_videos[1], 0.0)]
        report = ServingFrontend(world.service, config).run(requests)
        assert _statuses(report) == ["ok", "rejected"]
        rejected = report.responses[1]
        assert rejected.reason == "rate_limited"
        assert isinstance(rejected.error, ServiceOverloaded)
        assert rejected.error.retry_after_s == pytest.approx(0.1)
        assert rejected.retry_after_s == pytest.approx(0.1)

    def test_queue_overflow_rejects_with_429(self, world, query_videos):
        config = ServingConfig(max_batch_size=2, queue_capacity=2,
                               max_wait_s=0.01)
        requests = [Request("t", query_videos[i % len(query_videos)], 0.0)
                    for i in range(6)]
        report = ServingFrontend(world.service, config).run(requests)
        statuses = _statuses(report)
        assert statuses.count("rejected") == 4
        assert statuses.count("ok") == 2
        overflow = next(r for r in report.responses if r.status == "rejected")
        assert overflow.reason == "queue_full"
        assert isinstance(overflow.error, ServiceOverloaded)
        assert overflow.error.retry_after_s is not None

    def test_queue_full_retry_after_counts_the_worker_backlog(
            self, world, query_videos):
        # Both workers are busy past 0.05 s when the queue overflows, so
        # a retry is pointless before the first of them frees up.
        config = ServingConfig(max_batch_size=1, queue_capacity=1,
                               max_wait_s=0.01, service_base_s=0.05,
                               service_per_item_s=0.001, workers=2)
        requests = [Request("t", query_videos[i], 0.001 * i)
                    for i in range(4)]
        report = ServingFrontend(world.service, config).run(requests)
        assert _statuses(report) == ["ok", "ok", "ok", "rejected"]
        pool_free_s = min(r.completed_s for r in report.responses[:2])
        rejected = report.responses[3]
        assert rejected.reason == "queue_full"
        now = rejected.completed_s
        assert rejected.retry_after_s >= \
            pool_free_s - now + config.max_wait_s - 1e-12
        assert rejected.error.retry_after_s == rejected.retry_after_s

    def test_shed_bulk_eviction_refunds_the_victim(self, world,
                                                   query_videos):
        config = ServingConfig(
            max_batch_size=4, queue_capacity=2, max_wait_s=0.01,
            tenants={"bulk": TenantPolicy(priority="bulk",
                                          query_budget=2)})
        requests = [
            Request("bulk", query_videos[0], 0.0),
            Request("bulk", query_videos[1], 0.0),
            Request("live", query_videos[2], 0.0),
        ]
        report = ServingFrontend(world.service, config).run(requests)
        assert _statuses(report) == ["ok", "shed", "ok"]
        shed = report.responses[1]
        assert shed.reason == "priority_eviction"
        assert isinstance(shed.error, ServiceOverloaded)
        # The refund hands the budget slot back: the bulk tenant's count
        # of served-or-in-flight work never exceeded its budget of 2.
        assert report.served_by_tenant == {"bulk": 1, "live": 1}


class TestBudgetPaths:
    def test_global_budget_presplit_matches_sequential(self, query_videos):
        batched_world = build_world(31, query_budget=3)
        sequential_world = build_world(31, query_budget=3)
        requests = closed_spaced_timeline(["a", "b"], query_videos, 3, 1e-4)
        config = ServingConfig(max_batch_size=4, max_wait_s=0.001)

        batched = ServingFrontend(batched_world.service, config).run(requests)
        sequential = replay_sequential(requests, sequential_world.service,
                                       config)
        assert _statuses(batched) == _statuses(sequential)
        assert _statuses(batched).count("budget") == 3
        budget_response = next(r for r in batched.responses
                               if r.status == "budget")
        assert isinstance(budget_response.error, QueryBudgetExceeded)
        # Over-budget queries are never issued, exactly like a
        # sequential caller whose fourth query raises before charging.
        for attr in ("query_count", "queries_issued", "queries_refunded"):
            assert getattr(batched_world.service, attr) == \
                getattr(sequential_world.service, attr), attr
        assert batched_world.service.queries_issued == 3

    def test_tenant_budget_rejections_are_deterministic(self, world,
                                                        query_videos):
        config = ServingConfig(
            max_batch_size=2,
            default_tenant=TenantPolicy(query_budget=2))
        requests = [Request("t", query_videos[i % len(query_videos)],
                            float(i) * 1e-4) for i in range(4)]
        report = ServingFrontend(world.service, config).run(requests)
        assert _statuses(report) == ["ok", "ok", "rejected", "rejected"]
        assert report.responses[2].reason == "tenant_budget"
        assert isinstance(report.responses[2].error, QueryBudgetExceeded)


class TestOutage:
    #: Pin a gallery snapshot per admitted request (see TestOutageUnderChurn).
    churn = False

    def test_outage_sheds_queued_work_with_exact_refunds(self, query_videos):
        world = build_world(21, num_nodes=1)
        requests = closed_spaced_timeline(["a", "b"], query_videos, 4, 2e-4)
        config = ServingConfig(max_batch_size=4, max_wait_s=0.001,
                               churn=self.churn)
        frontend = ServingFrontend(world.service, config)
        shed_before = counter("serving.shed", reason="outage").value
        with FaultPlan().outage("node-0", 3, 7).install(
                world.engine.gallery):
            report = frontend.run(requests)

        statuses = _statuses(report)
        assert statuses[:4] == ["ok", "ok", "ok", "unavailable"]
        assert statuses.count("shed") + statuses.count("unavailable") == 5
        unavailable = next(r for r in report.responses
                           if r.status == "unavailable")
        assert isinstance(unavailable.error, RetrievalUnavailable)
        # Exact refunds: every issued query is either charged or
        # refunded, and only the three pre-outage queries were charged.
        service = world.service
        assert service.query_count == 3
        assert service.queries_issued == \
            service.query_count + service.queries_refunded
        assert counter("serving.shed", reason="outage").value > shed_before

        # The front end recovers once the outage window has passed.
        recovery = frontend.run(requests[:2])
        assert _statuses(recovery) == ["ok", "ok"]

    def test_outage_sheds_no_earlier_than_the_failure(self, query_videos):
        # Shedding is causal: the queue is dropped when the failing batch
        # completes on the virtual clock, never before.
        world = build_world(21, num_nodes=1)
        requests = closed_spaced_timeline(["a", "b"], query_videos, 4, 2e-4)
        config = ServingConfig(max_batch_size=2, max_wait_s=0.001,
                               service_base_s=0.01, churn=self.churn)
        with FaultPlan().outage("node-0", 1, 9).install(
                world.engine.gallery):
            report = ServingFrontend(world.service, config).run(requests)
        unavailable = [r for r in report.responses
                       if r.status == "unavailable"]
        shed = [r for r in report.responses
                if r.status == "shed" and r.reason == "outage"]
        assert unavailable and shed
        failed_s = max(r.completed_s for r in unavailable)
        assert all(r.completed_s >= failed_s for r in shed)
        # Everything queued behind the failing batch was shed with it,
        # so nothing else reached the service.
        assert len(unavailable) == 1

    def test_prefix_results_match_sequential(self, query_videos):
        config = ServingConfig(max_batch_size=4, max_wait_s=0.001,
                               churn=self.churn)
        requests = closed_spaced_timeline(["a"], query_videos, 4, 1e-4)

        batched_world = build_world(21, num_nodes=1)
        frontend = ServingFrontend(batched_world.service, config)
        with FaultPlan().outage("node-0", 2, 9).install(
                batched_world.engine.gallery):
            report = frontend.run(requests)

        sequential_world = build_world(21, num_nodes=1)
        sequential_results = []
        with FaultPlan().outage("node-0", 2, 9).install(
                sequential_world.engine.gallery):
            for request in requests:
                try:
                    sequential_results.append(
                        sequential_world.service.query(request.video))
                except RetrievalUnavailable:
                    break
        served = [r for r in report.responses if r.ok]
        assert [r.result.ids for r in served] == \
            [result.ids for result in sequential_results]


class TestOutageUnderChurn(TestOutage):
    """The same outages with every request pinned to its admission
    snapshot: the fault clock must still tick once per query."""

    churn = True


class TestWorkload:
    def test_generate_timeline_is_seed_deterministic(self, query_videos):
        specs = [TenantSpec("a", 100.0, 5), TenantSpec("b", 50.0, 5)]
        one = generate_timeline(3, specs, query_videos)
        two = generate_timeline(3, specs, query_videos)
        assert [(r.tenant, r.arrival_s, r.video.video_id) for r in one] == \
            [(r.tenant, r.arrival_s, r.video.video_id) for r in two]

    def test_tenant_streams_are_independent(self, query_videos):
        base = [TenantSpec("a", 100.0, 5)]
        extended = [TenantSpec("a", 100.0, 5), TenantSpec("b", 50.0, 5)]
        solo = generate_timeline(3, base, query_videos)
        joint = [r for r in generate_timeline(3, extended, query_videos)
                 if r.tenant == "a"]
        assert [(r.arrival_s, r.video.video_id) for r in solo] == \
            [(r.arrival_s, r.video.video_id) for r in joint]

    def test_closed_spaced_timeline_is_round_robin(self, query_videos):
        requests = closed_spaced_timeline(["x", "y"], query_videos, 2, 0.5)
        assert [r.tenant for r in requests] == ["x", "y", "x", "y"]
        assert [r.arrival_s for r in requests] == [0.0, 0.5, 1.0, 1.5]

    def test_empty_video_pool_is_an_error(self):
        with pytest.raises(ValueError, match="video"):
            generate_timeline(1, [TenantSpec("a", 1.0, 1)], [])
        with pytest.raises(ValueError, match="video"):
            closed_spaced_timeline(["a"], [], 1, 0.1)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="mean_rate_per_s"):
            TenantSpec("a", 0.0, 1)
        with pytest.raises(ValueError, match="count"):
            TenantSpec("a", 1.0, -1)
