"""Benchmark the resilience wrappers: overhead, replication, recovery.

Five measurements:

1. **wrapper overhead** — a fault-free SimBA rectification loop against
   a victim service with the full resilience stack on (retry + breaker
   + deadline, r=1) vs the plain scatter path (``resilience=None``).
   The PR's contract is <5% overhead when nothing fails.
2. **gallery micro** — scatter/gather search wall time, plain vs
   resilient r=1 vs replicated r=2 (the r=2 column is informational:
   replication doubles per-node scoring work by design).
3. **faulted recovery** — the acceptance scenario: r=2, four nodes, a
   seeded :class:`FaultPlan` kills one node mid-attack; the run must
   finish with a trace identical to the fault-free run.
4. **keyed faults** — one SimBA attack under a flaky + corrupt + outage
   plan, batched (speculating) and sequential; fault draws are keyed by
   logical query id, so both must agree on queries, trace, ledger and
   the plan's timeline, through the outage and the resume it forces.
5. **checkpoint** — save/load round-trip time for an attack checkpoint.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py           # full
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke   # CI

The full run records ``BENCH_resilience.json`` at the repo root.
``--smoke`` is the CI gate: it re-measures quickly and fails when the
fault-free wrapper overhead exceeds 5% (re-measuring once to damp
scheduler flake), the faulted run diverges from the fault-free one, or
the batched and sequential faulted attacks differ.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.attacks.objective import RetrievalObjective  # noqa: E402
from repro.attacks.search import simba_search  # noqa: E402
from repro.errors import RetrievalUnavailable  # noqa: E402
from repro.models import create_feature_extractor  # noqa: E402
from repro.resilience import (  # noqa: E402
    ANY_NODE,
    AttackCheckpoint,
    BreakerPolicy,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
    load_checkpoint,
    save_checkpoint,
)
from repro.retrieval import (  # noqa: E402
    RetrievalEngine,
    RetrievalService,
    ShardedGallery,
)
from repro.video import load_dataset  # noqa: E402


def wrapper_config(replication: int = 1) -> ResilienceConfig:
    """The full runtime stack: retry + breaker + deadline, no hedging."""
    return ResilienceConfig(
        replication=replication,
        retry=RetryPolicy(max_attempts=3),
        breaker=BreakerPolicy(failure_threshold=5, cooldown_s=30.0),
        deadline_s=10.0,
        on_data_loss="raise",
    )


def build_fixture(seed: int = 0):
    """A tiny victim dataset + untrained extractor (speed only)."""
    dataset = load_dataset(
        "ucf101", num_classes=4, train_videos=16, test_videos=4,
        height=12, width=12, num_frames=6, seed=seed,
    )
    extractor = create_feature_extractor(
        "c3d", feature_dim=16, width=2, rng=seed)
    extractor.eval()
    extractor.requires_grad_(False)
    return extractor, dataset


def build_service(extractor, dataset, resilience, num_nodes=4):
    engine = RetrievalEngine(extractor, num_nodes=num_nodes,
                             cache_size=0, resilience=resilience)
    engine.index_videos(dataset.train)
    return RetrievalService.build(engine, m=8)


def attack_run(extractor, dataset, resilience, iterations,
               fault_plan=None, rng_seed=0):
    """One seeded SimBA loop; returns (seconds, trace, query_count)."""
    service = build_service(extractor, dataset, resilience)
    original, target = dataset.test[0], dataset.test[1]
    support = np.zeros(original.pixels.shape, dtype=bool)
    support[:2] = True
    objective = RetrievalObjective(service, original, target)

    def run():
        start = time.perf_counter()
        trace = simba_search(
            original, objective, support, tau=0.1, iterations=iterations,
            rng=np.random.default_rng(rng_seed)).trace
        return time.perf_counter() - start, trace

    if fault_plan is None:
        seconds, trace = run()
    else:
        with fault_plan.install(service.engine.gallery):
            seconds, trace = run()
    return seconds, trace, service.query_count


def bench_wrapper_overhead(extractor, dataset, iterations, repeats):
    """Fault-free attack loop: resilience stack on (r=1) vs off."""
    plain_s = resilient_s = float("inf")
    # Warm-up touches both code paths end to end.
    attack_run(extractor, dataset, None, 2)
    attack_run(extractor, dataset, wrapper_config(), 2)
    for repeat in range(repeats):
        seconds, _, _ = attack_run(extractor, dataset, None,
                                   iterations, rng_seed=repeat)
        plain_s = min(plain_s, seconds)
        seconds, _, _ = attack_run(extractor, dataset, wrapper_config(),
                                   iterations, rng_seed=repeat)
        resilient_s = min(resilient_s, seconds)
    return {
        "iterations": iterations,
        "repeats": repeats,
        "plain_s": plain_s,
        "resilient_s": resilient_s,
        "overhead": resilient_s / plain_s - 1.0,
    }


def bench_gallery_micro(trials: int) -> dict:
    """Scatter/gather wall time: plain vs wrapped r=1 vs replicated r=2."""
    rng = np.random.default_rng(2)
    rows, dim, queries = 2000, 16, 64
    ids = [f"v{i}" for i in range(rows)]
    labels = [i % 10 for i in range(rows)]
    features = rng.normal(size=(rows, dim))
    probes = rng.normal(size=(queries, dim))

    def timed(gallery):
        best = float("inf")
        for _ in range(trials):
            start = time.perf_counter()
            for probe in probes:
                gallery.search(probe, k=8)
            best = min(best, time.perf_counter() - start)
        return best

    galleries = {}
    for key, config in (("plain", None), ("resilient_r1", wrapper_config()),
                        ("replicated_r2", wrapper_config(replication=2))):
        gallery = ShardedGallery(num_nodes=4, resilience=config)
        gallery.add_batch(ids, labels, features)
        gallery.search(probes[0], k=8)  # warm-up
        galleries[key] = timed(gallery)
    return {
        "gallery_rows": rows,
        "queries": queries,
        "plain_us": galleries["plain"] * 1e6 / queries,
        "resilient_r1_us": galleries["resilient_r1"] * 1e6 / queries,
        "replicated_r2_us": galleries["replicated_r2"] * 1e6 / queries,
        "r1_overhead": galleries["resilient_r1"] / galleries["plain"] - 1.0,
        "r2_cost_ratio": galleries["replicated_r2"] / galleries["plain"],
    }


def bench_faulted_recovery(extractor, dataset, iterations) -> dict:
    """Kill one of four nodes from the attack's 7th query (logical id 6)
    on, under r=2; results must not move."""
    clean_s, clean_trace, clean_queries = attack_run(
        extractor, dataset, wrapper_config(replication=2), iterations)
    plan = FaultPlan(seed=1).outage("node-1", 6, 10 ** 9)
    faulted_s, faulted_trace, faulted_queries = attack_run(
        extractor, dataset, wrapper_config(replication=2), iterations,
        fault_plan=plan)
    outages = sum(1 for _, _, kind in plan.timeline() if kind == "outage")
    return {
        "iterations": iterations,
        "clean_s": clean_s,
        "faulted_s": faulted_s,
        "outage_events": outages,
        "identical_trace": faulted_trace == clean_trace,
        "identical_queries": faulted_queries == clean_queries,
    }


def bench_keyed_faults(extractor, dataset, iterations) -> dict:
    """One SimBA attack under flaky + corrupt + outage, batched and not."""
    original, target = dataset.test[0], dataset.test[1]
    support = np.zeros(original.pixels.shape, dtype=bool)
    support[:2] = True
    runs, interruptions = {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        for batched in (False, True):
            service = build_service(extractor, dataset,
                                    wrapper_config(replication=2))
            plan = (FaultPlan(seed=3).flaky("node-0", 0.3)
                    .corrupt("node-2", 0.3).outage(ANY_NODE, 9, 12))
            with plan.install(service.engine.gallery):
                for _ in range(50):
                    try:
                        report = simba_search(
                            original,
                            RetrievalObjective(service, original, target),
                            support, tau=0.1, iterations=iterations,
                            rng=np.random.default_rng(0), batched=batched,
                            checkpoint_path=Path(tmp) / f"{batched}.pkl")
                        break
                    except RetrievalUnavailable:
                        interruptions += 1
                else:
                    raise RuntimeError("SimBA never escaped the outage")
            runs[batched] = {
                "queries": report.queries,
                "trace": report.trace,
                "ledger": (service.query_count, service.queries_issued,
                           service.queries_refunded),
                "timeline": plan.timeline(),
            }
    return {
        "iterations": iterations,
        "interruptions": interruptions,
        "fault_events": len(runs[False]["timeline"]),
        **{f"identical_{key}": runs[False][key] == runs[True][key]
           for key in runs[False]},
    }


def bench_checkpoint(trials: int) -> dict:
    rng = np.random.default_rng(3)
    checkpoint = AttackCheckpoint(
        algo="simba", iteration=500,
        rng_state=rng.bit_generator.state,
        service_query_count=1000, objective_queries=1000,
        objective_trace_len=998,
        payload={
            "perturbation": rng.normal(size=(6, 12, 12, 3)),
            "trace": list(rng.normal(size=1000)),
            "order": rng.permutation(400),
            "cursor": 37,
        },
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.pkl"
        save_s = load_s = float("inf")
        for _ in range(trials):
            start = time.perf_counter()
            save_checkpoint(path, checkpoint)
            save_s = min(save_s, time.perf_counter() - start)
            start = time.perf_counter()
            load_checkpoint(path)
            load_s = min(load_s, time.perf_counter() - start)
        size = path.stat().st_size
    return {
        "payload_bytes": size,
        "save_us": save_s * 1e6,
        "load_us": load_s * 1e6,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the resilience subsystem.")
    parser.add_argument("--iterations", type=int, default=120,
                        help="SimBA iterations per attack run")
    parser.add_argument("--repeats", type=int, default=3,
                        help="attack runs per configuration (min is kept)")
    parser.add_argument("--trials", type=int, default=20,
                        help="trials per micro-bench")
    parser.add_argument("--overhead-budget", type=float, default=0.05,
                        help="max fault-free wrapper overhead (fraction)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: quick run, assert overhead budget "
                             "and exact fault recovery")
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_resilience.json"),
                        help="output JSON path (full runs only)")
    args = parser.parse_args(argv)

    iterations = 40 if args.smoke else args.iterations
    repeats = 1 if args.smoke else args.repeats
    trials = 5 if args.smoke else args.trials

    extractor, dataset = build_fixture()
    overhead = bench_wrapper_overhead(extractor, dataset, iterations, repeats)
    if overhead["overhead"] > args.overhead_budget:
        # One re-measure damps scheduler/turbo flake before failing.
        print(f"[bench_resilience] overhead {overhead['overhead']:.1%} over "
              "budget; re-measuring once")
        overhead = bench_wrapper_overhead(extractor, dataset,
                                          iterations, max(repeats, 2))

    result = {
        "bench": "resilience",
        "timestamp": time.time(),
        "smoke": args.smoke,
        "overhead_budget": args.overhead_budget,
        "wrapper_overhead": overhead,
        "gallery_micro": bench_gallery_micro(trials),
        "faulted_recovery": bench_faulted_recovery(
            extractor, dataset, iterations),
        "keyed_faults": bench_keyed_faults(extractor, dataset, iterations),
        "checkpoint": bench_checkpoint(trials),
    }
    print(json.dumps(result, indent=2))

    failures = []
    if result["wrapper_overhead"]["overhead"] > args.overhead_budget:
        failures.append(
            f"fault-free wrapper overhead "
            f"{result['wrapper_overhead']['overhead']:.1%} exceeds "
            f"{args.overhead_budget:.0%} budget")
    recovery = result["faulted_recovery"]
    if not recovery["identical_trace"]:
        failures.append("faulted r=2 run diverged from the fault-free trace")
    if not recovery["identical_queries"]:
        failures.append("faulted r=2 run changed the query accounting")
    if not recovery["outage_events"]:
        failures.append("the scripted outage never fired")
    keyed = result["keyed_faults"]
    failures.extend(
        f"batched and sequential faulted SimBA differ in {key[10:]}"
        for key, same in keyed.items()
        if key.startswith("identical_") and not same)
    if not keyed["interruptions"]:
        failures.append("the keyed-fault outage never interrupted SimBA")

    for failure in failures:
        print(f"[bench_resilience] FAIL: {failure}")
    if failures:
        return 1

    if args.smoke:
        print("[bench_resilience] smoke OK")
    else:
        out_path = Path(args.out)
        out_path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"[bench_resilience] wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
