"""Benchmark the serving front end: throughput, latency, shedding.

Three measurements:

1. **offered-load sweep** — a seeded multi-tenant Poisson workload at
   0.5x / 1x / 2x of the front end's nominal capacity.  For each point
   we record virtual-clock throughput, p50/p99 latency, and the shed
   rate (queue overflow + priority eviction), the classic saturation
   curve of a bounded-queue server.
2. **batched speedup** — the acceptance gate: the same timeline served
   with micro-batching (``max_batch_size=B``) vs one query at a time
   (``max_batch_size=1``), measured in *wall-clock* time as an
   interleaved A/B through ``common.interleave``.  Coalescing B queries
   into one ``engine.retrieve_batch`` runs one model forward instead of
   B, so the median warm ratio (one world per configuration, traces
   warm, no embedding cache) must be at least 2x.  The cold ratio — a
   fresh world per run, so every new batch shape traces inside the
   timed run — is reported beside it and gated against its recorded
   value.
3. **determinism** — the same timeline replayed twice must produce
   identical statuses, per-tenant counts, and virtual makespan.

With ``--churn`` two scale-out measurements join the set:

4. **worker scaling** — the same 2x-load timeline across 1/2/4 pool
   workers; virtual throughput must grow >= 1.5x from one worker to
   four while serving identical work (the per-worker virtual clocks
   make this deterministic).
5. **churn equivalence** — a mutating timeline (interleaved
   add/delete/re-embed events) through the pooled front end vs the
   sequential reference replay: statuses, tenant counts, the query
   ledger, and applied-event counts must match exactly.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py                   # full
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke           # CI
    PYTHONPATH=src python benchmarks/bench_serving.py --churn --smoke   # CI

The full run records ``BENCH_serving.json`` at the repo root and gates
the warm batched speedup at 2x.  ``--smoke`` runs the same workload,
relaxes that gate to 1.5x and never writes the JSON.  Both fail when
the cold speedup fell more than 10% under its recorded value.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from common import finish, interleave, recorded, regressions  # noqa: E402
from repro.qa.reference import replay_sequential  # noqa: E402
from repro.qa.world import build_world, tiny_videos  # noqa: E402
from repro.serving import (  # noqa: E402
    ServingConfig,
    ServingFrontend,
    TenantPolicy,
    TenantSpec,
    generate_churn,
    generate_timeline,
)

#: The virtual service-cost model shared by every measurement.
BASE_CONFIG = ServingConfig(
    max_batch_size=8, max_wait_s=0.002, queue_capacity=32,
    service_base_s=0.004, service_per_item_s=0.001,
    tenants={"bulk-miner": TenantPolicy(priority="bulk")},
)

#: Requests per tenant per measurement, and interleaved wall-clock rounds.
PER_TENANT, ROUNDS = 40, 42

#: Required median warm batched-vs-sequential wall speedup (full run,
#: ``--smoke``), and pooled-vs-single virtual speedup at 2x load.
MIN_SPEEDUP, SMOKE_MIN_SPEEDUP = 2.0, 1.5
MIN_POOL_SPEEDUP = 1.5

#: Median ratios gated against the recorded baseline.
REGRESSION_CHECKS = ["batched_speedup.cold_speedup"]

#: Nominal capacity of the cost model at full batches: B queries every
#: ``base + per_item * B`` seconds.
CAPACITY_QPS = BASE_CONFIG.max_batch_size / (
    BASE_CONFIG.service_base_s
    + BASE_CONFIG.service_per_item_s * BASE_CONFIG.max_batch_size)


def make_timeline(seed: int, total_rate_qps: float, per_tenant: int):
    """Three interactive tenants + one bulk tenant at a combined rate."""
    share = total_rate_qps / 4.0
    specs = [
        TenantSpec("alice", share, per_tenant),
        TenantSpec("bob", share, per_tenant),
        TenantSpec("carol", share, per_tenant),
        TenantSpec("bulk-miner", share, per_tenant, priority="bulk"),
    ]
    return generate_timeline(seed, specs, tiny_videos(seed + 1, 6,
                                                      label_base=5))


def bench_offered_load(per_tenant: int, seed: int = 13) -> list[dict]:
    """Virtual-clock saturation sweep at 0.5x / 1x / 2x capacity."""
    # A tighter queue than the default makes the 2x point actually
    # engage backpressure even on the small smoke workload.
    config = BASE_CONFIG.with_(queue_capacity=16)
    points = []
    for multiplier in (0.5, 1.0, 2.0):
        offered = CAPACITY_QPS * multiplier
        timeline = make_timeline(seed, offered, per_tenant)
        world = build_world(41)
        report = ServingFrontend(world.service, config).run(timeline)
        points.append({
            "load_multiplier": multiplier,
            "offered_qps": offered,
            "requests": len(timeline),
            "served": report.served,
            "shed_rate": report.shed_rate,
            "rejected": report.rejected,
            "throughput_qps": report.throughput_qps,
            "p50_latency_s": report.latency_percentile(50),
            "p99_latency_s": report.latency_percentile(99),
            "mean_batch": report.mean_batch_size(),
        })
    return points


def bench_batched_speedup(per_tenant: int, seed: int = 17) -> dict:
    """Wall-clock: micro-batched front end vs one-query-at-a-time."""
    timeline = make_timeline(seed, CAPACITY_QPS, per_tenant)
    # A large queue keeps both runs shed-free so they serve identical
    # work; only the batch size differs.
    batched_config = BASE_CONFIG.with_(queue_capacity=4096)
    sequential_config = batched_config.with_(max_batch_size=1)

    configs = {"sequential": sequential_config, "batched": batched_config}

    def setup(config, world=None):
        # Without a world, each run serves from a fresh one: cold traces.
        world = world if world is not None else build_world(41)
        frontend = ServingFrontend(world.service, config)
        return lambda: frontend.run(timeline)

    timing = interleave({name: partial(setup, config, build_world(41))
                         for name, config in configs.items()}, ROUNDS)
    cold_timing = interleave({name: partial(setup, config)
                              for name, config in configs.items()}, ROUNDS)
    batched = timing.results["batched"]
    sequential = timing.results["sequential"]
    speedup = timing.ratio("sequential", "batched")
    cold_speedup = cold_timing.ratio("sequential", "batched")
    return {
        "requests": len(timeline),
        "max_batch_size": batched_config.max_batch_size,
        "rounds": ROUNDS,
        "batched_wall_s": timing.median("batched"),
        "sequential_wall_s": timing.median("sequential"),
        "speedup": speedup["median"],
        "speedup_iqr": speedup["iqr"],
        "batched_wall_qps": batched.served / timing.median("batched"),
        "sequential_wall_qps":
            sequential.served / timing.median("sequential"),
        "cold_batched_wall_s": cold_timing.median("batched"),
        "cold_sequential_wall_s": cold_timing.median("sequential"),
        "cold_speedup": cold_speedup["median"],
        "cold_speedup_iqr": cold_speedup["iqr"],
        "same_served": batched.served == sequential.served,
        "same_tenant_counts":
            batched.served_by_tenant == sequential.served_by_tenant,
    }


def bench_determinism(per_tenant: int, seed: int = 19) -> dict:
    """Two replays of one timeline must agree bit for bit."""
    timeline = make_timeline(seed, CAPACITY_QPS * 1.5, per_tenant)
    reports = []
    for _ in range(2):
        world = build_world(41)
        reports.append(ServingFrontend(world.service,
                                       BASE_CONFIG).run(timeline))
    first, second = reports
    return {
        "requests": len(timeline),
        "identical_statuses":
            [r.status for r in first.responses]
            == [r.status for r in second.responses],
        "identical_tenant_counts":
            first.served_by_tenant == second.served_by_tenant,
        "identical_makespan": first.makespan_s == second.makespan_s,
    }


def bench_worker_scaling(per_tenant: int, seed: int = 23) -> dict:
    """Virtual throughput vs worker count at 2x offered load.

    The pool's scheduling is all virtual-time, so this measurement is
    deterministic: W workers drain a saturating timeline in ~1/W the
    virtual makespan while serving the identical work.  The acceptance
    gate is the pooled-vs-single ratio at the sweep's top.
    """
    timeline = make_timeline(seed, CAPACITY_QPS * 2.0, per_tenant)
    points = []
    for workers in (1, 2, 4):
        world = build_world(41)
        config = BASE_CONFIG.with_(queue_capacity=4096, workers=workers)
        report = ServingFrontend(world.service, config).run(timeline)
        points.append({
            "workers": workers,
            "served": report.served,
            "makespan_s": report.makespan_s,
            "throughput_qps": report.throughput_qps,
            "p99_latency_s": report.latency_percentile(99),
        })
    single, pooled = points[0], points[-1]
    return {
        "offered_multiplier": 2.0,
        "requests": len(timeline),
        "points": points,
        "same_served": len({point["served"] for point in points}) == 1,
        "pooled_speedup": pooled["throughput_qps"]
        / single["throughput_qps"],
    }


def bench_churn(per_tenant: int, seed: int = 29) -> dict:
    """Mutating timeline: pooled front end vs the sequential reference.

    One seeded add/delete/re-embed stream is interleaved with the query
    timeline; both replayers must agree on statuses, tenant counts, the
    query ledger, and the number of events applied — the oracle
    contract, measured here at bench scale with throughput attached.
    """
    def run(pooled: bool):
        world = build_world(41)
        specs = [TenantSpec(f"tenant-{i}", CAPACITY_QPS / 3.0, per_tenant)
                 for i in range(3)]
        requests = generate_timeline(seed, specs, world.gallery_videos)
        horizon = max(request.arrival_s for request in requests)
        events = generate_churn(
            seed, [video.video_id for video in world.gallery_videos],
            adds=per_tenant // 2, deletes=per_tenant // 3,
            reembeds=per_tenant // 3, horizon_s=horizon)
        timeline = list(requests) + list(events)
        config = BASE_CONFIG.with_(queue_capacity=4096, workers=4)
        if pooled:
            report = ServingFrontend(world.service, config).run(timeline)
        else:
            report = replay_sequential(timeline, world.service, config)
        ledger = (world.service.query_count, world.service.queries_issued,
                  world.service.queries_refunded)
        return report, ledger

    sequential, sequential_ledger = run(pooled=False)
    pooled, pooled_ledger = run(pooled=True)
    return {
        "requests": len(sequential.responses),
        "events_applied": pooled.gallery_events,
        "identical_statuses":
            [r.status for r in sequential.responses]
            == [r.status for r in pooled.responses],
        "identical_tenant_counts":
            sequential.served_by_tenant == pooled.served_by_tenant,
        "identical_ledger": sequential_ledger == pooled_ledger,
        "identical_events":
            sequential.gallery_events == pooled.gallery_events,
        "pooled_throughput_qps": pooled.throughput_qps,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the serving front end.")
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI gate: {SMOKE_MIN_SPEEDUP}x warm speedup "
                             "gate, no JSON output")
    parser.add_argument("--churn", action="store_true",
                        help="also measure worker-pool scaling and the "
                             "mutating-timeline (churn) path, gating the "
                             f"pooled virtual speedup at {MIN_POOL_SPEEDUP}x")
    args = parser.parse_args(argv)

    min_speedup = SMOKE_MIN_SPEEDUP if args.smoke else MIN_SPEEDUP
    speedup = bench_batched_speedup(PER_TENANT)
    result = {
        "bench": "serving",
        "timestamp": time.time(),
        "smoke": args.smoke,
        "capacity_qps": CAPACITY_QPS,
        "offered_load": bench_offered_load(PER_TENANT),
        "batched_speedup": speedup,
        "determinism": bench_determinism(PER_TENANT),
    }
    if args.churn:
        result["worker_scaling"] = bench_worker_scaling(PER_TENANT)
        result["churn"] = bench_churn(PER_TENANT // 2)

    failures = []
    if speedup["speedup"] < min_speedup:
        failures.append(
            f"batched wall speedup {speedup['speedup']:.2f}x is under the "
            f"{min_speedup:.1f}x gate")
    failures += regressions(result, recorded("serving"), REGRESSION_CHECKS)
    if not speedup["same_served"] or not speedup["same_tenant_counts"]:
        failures.append("batched and sequential runs served different work")
    determinism = result["determinism"]
    if not all(determinism[key] for key in
               ("identical_statuses", "identical_tenant_counts",
                "identical_makespan")):
        failures.append("two replays of one timeline diverged")
    overloaded = result["offered_load"][-1]
    if overloaded["shed_rate"] + (overloaded["rejected"]
                                  / overloaded["requests"]) <= 0.0:
        failures.append("the 2x-capacity point never shed or rejected work "
                        "(backpressure is not engaging)")
    if args.churn:
        scaling = result["worker_scaling"]
        if not scaling["same_served"]:
            failures.append("worker counts served different work")
        if scaling["pooled_speedup"] < MIN_POOL_SPEEDUP:
            failures.append(
                f"pooled virtual speedup {scaling['pooled_speedup']:.2f}x "
                f"at 2x load is under the {MIN_POOL_SPEEDUP:.1f}x gate")
        churn = result["churn"]
        for key in ("identical_statuses", "identical_tenant_counts",
                    "identical_ledger", "identical_events"):
            if not churn[key]:
                failures.append(
                    f"mutating timeline diverged between the pooled "
                    f"front end and the sequential reference ({key})")
    return finish("serving", result, failures, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
