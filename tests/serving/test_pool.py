"""Worker-pool executor: scheduling math, fallbacks, and equivalence."""

import pytest

from repro.obs import counter
from repro.qa import eager_forwards
from repro.qa.invariants import check_budget_conservation
from repro.qa.world import build_world, tiny_videos
from repro.resilience import FaultPlan
from repro.serving import (
    ServingConfig,
    ServingFrontend,
    TenantSpec,
    WorkerPool,
    generate_timeline,
)
from repro.serving.pool import _Immediate


def make_timeline(world, seed=11, per_tenant=8):
    specs = [TenantSpec(f"tenant-{i}", 150.0 + 50.0 * i, per_tenant)
             for i in range(3)]
    return generate_timeline(seed, specs, world.gallery_videos)


def config_with(workers: int, **overrides) -> ServingConfig:
    base = dict(max_batch_size=4, max_wait_s=0.003, queue_capacity=512,
                workers=workers)
    base.update(overrides)
    return ServingConfig(**base)


class TestWorkerPoolScheduling:
    def test_pick_worker_earliest_free_lowest_index(self):
        pool = WorkerPool(3)
        pool.free_at_s = [0.5, 0.2, 0.2]
        assert pool.pick_worker() == 1  # earliest-free tie → lowest index
        pool.free_at_s = [0.1, 0.2, 0.3]
        assert pool.pick_worker() == 0

    def test_occupy_books_virtual_time(self):
        pool = WorkerPool(2)
        assert pool.occupy(0, 1.0, 0.25) == 1.25
        assert pool.free_at_s == [1.25, 0.0]
        # A dispatch arriving before the worker is free queues on it.
        assert pool.occupy(0, 1.1, 0.25) == 1.5
        assert pool.min_free_s == 0.0
        assert pool.busy_s[0] == 0.5

    def test_single_worker_runs_inline(self):
        with WorkerPool(1) as pool:
            future = pool.submit(lambda x: x + 1, 41)
            assert isinstance(future, _Immediate)
            assert future.result() == 42

    def test_immediate_reraises_at_result(self):
        future = _Immediate(lambda: 1 / 0, ())
        with pytest.raises(ZeroDivisionError):
            future.result()

    def test_multi_worker_executes_on_threads(self):
        import threading
        with WorkerPool(3) as pool:
            idents = {pool.submit(threading.get_ident).result()
                      for _ in range(6)}
        assert threading.get_ident() not in idents


class TestPooledEquivalence:
    def test_pooled_matches_single_worker_exactly(self):
        reports = {}
        for workers in (1, 3):
            world = build_world(61, num_videos=8)
            timeline = make_timeline(world)
            reports[workers] = (
                ServingFrontend(world.service,
                                config_with(workers)).run(timeline),
                world.service)
        single, single_service = reports[1]
        pooled, pooled_service = reports[3]
        assert pooled.workers == 3 and single.workers == 1
        assert [r.status for r in single.responses] == \
            [r.status for r in pooled.responses]
        assert single.served_by_tenant == pooled.served_by_tenant
        assert (single_service.query_count,
                single_service.queries_refunded) == \
            (pooled_service.query_count, pooled_service.queries_refunded)
        for mine, theirs in zip(single.responses, pooled.responses):
            if mine.ok:
                assert [e.video_id for e in mine.result.entries] == \
                    [e.video_id for e in theirs.result.entries]
        check_budget_conservation(pooled_service)

    def test_pooled_replay_matches_the_eager_reference(self):
        # Worker threads replay their own traces; the results (scores
        # included) equal the same pooled run on the eager forward.
        replays = counter("nn.jit.replays")
        world = build_world(64, num_videos=8)
        before = replays.value
        pooled = ServingFrontend(world.service, config_with(3)).run(
            make_timeline(world))
        assert pooled.workers == 3 and replays.value > before
        reference_world = build_world(64, num_videos=8)
        with eager_forwards():
            reference = ServingFrontend(reference_world.service,
                                        config_with(3)).run(
                make_timeline(reference_world))
        assert [r.status for r in reference.responses] == \
            [r.status for r in pooled.responses]
        for mine, theirs in zip(reference.responses, pooled.responses):
            if mine.ok:
                assert [(e.video_id, e.score) for e in mine.result.entries] \
                    == [(e.video_id, e.score) for e in theirs.result.entries]

    def test_more_workers_never_lengthen_the_virtual_makespan(self):
        makespans = []
        for workers in (1, 2, 4):
            world = build_world(61, num_videos=8)
            timeline = make_timeline(world, per_tenant=12)
            config = config_with(workers, service_base_s=0.004,
                                 service_per_item_s=0.001)
            makespans.append(
                ServingFrontend(world.service, config).run(timeline)
                .makespan_s)
        assert makespans[0] >= makespans[1] >= makespans[2]

    def test_pooled_replay_is_deterministic(self):
        digests = []
        for _ in range(2):
            world = build_world(62, num_videos=8)
            report = ServingFrontend(world.service, config_with(3)).run(
                make_timeline(world))
            digests.append((
                [r.status for r in report.responses],
                report.served_by_tenant, report.makespan_s))
        assert digests[0] == digests[1]


class TestFallbacks:
    def test_fault_plan_forces_single_worker(self):
        world = build_world(63, num_videos=8)
        plan = FaultPlan(seed=1).outage("node-0", 10_000, 10_001)
        before = counter("serving.pool_fallbacks", reason="fault_plan").value
        with plan.install(world.service.engine.gallery):
            report = ServingFrontend(world.service, config_with(4)).run(
                make_timeline(world, per_tenant=3))
        assert report.workers == 1
        assert counter("serving.pool_fallbacks",
                       reason="fault_plan").value == before + 1

    def test_instance_query_override_forces_single_worker(self):
        world = build_world(64, num_videos=8)
        service = world.service
        inner = type(service).query
        service.query = lambda video, m=None: inner(service, video, m)
        report = ServingFrontend(service, config_with(4)).run(
            make_timeline(world, per_tenant=3))
        assert report.workers == 1
        assert report.served > 0
        check_budget_conservation(service)

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(workers=0)
