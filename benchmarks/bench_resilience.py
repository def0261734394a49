"""Benchmark the resilience wrappers: overhead, replication, recovery.

Five measurements:

1. **wrapper overhead** — a fault-free SimBA rectification loop against
   a victim service with the full resilience stack on (retry + breaker
   + deadline, r=1) vs the plain scatter path (``resilience=None``).
   The contract is <5% median overhead when nothing fails.
2. **gallery micro** — scatter/gather search wall time, plain vs
   resilient r=1 vs replicated r=2 (the r=2 column is informational:
   replication doubles per-node scoring work by design).
3. **faulted recovery** — the acceptance scenario: r=2, four nodes, a
   seeded :class:`FaultPlan` kills one node mid-attack; the run must
   finish with a trace identical to the fault-free run.
4. **keyed faults** — one SimBA attack under a flaky + corrupt + outage
   plan, speculating and on the qa ``SequentialObjective`` (one query
   per candidate); fault draws are keyed by
   logical query id, so both must agree on queries, trace, ledger and
   the plan's timeline, through the outage and the resume it forces.
5. **checkpoint** — save/load round-trip time for an attack checkpoint.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py           # full
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke   # CI

Every timing is an interleaved A/B through ``common.interleave``.  The
full run records ``BENCH_resilience.json`` at the repo root.  Every run
fails when the median fault-free wrapper overhead exceeds 5%, the
faulted run diverges from the fault-free one, or the speculating and
sequential faulted attacks differ.  ``--smoke`` runs a shorter loop and
never records.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from common import finish, interleave  # noqa: E402
from repro.attacks.objective import RetrievalObjective  # noqa: E402
from repro.attacks.search import simba_search  # noqa: E402
from repro.errors import RetrievalUnavailable  # noqa: E402
from repro.models import create_feature_extractor  # noqa: E402
from repro.qa.reference import SequentialObjective  # noqa: E402
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


#: SimBA iterations per attack run (full run, ``--smoke``), and
#: interleaved rounds per comparison.
ITERATIONS, SMOKE_ITERATIONS = 120, 40
ROUNDS = 64

#: Largest median fault-free wrapper overhead (a fraction).
OVERHEAD_BUDGET = 0.05


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


def attack_setup(service, dataset, iterations):
    """One seeded SimBA loop on ``service``; the objective's two
    reference queries are issued untimed, the returned body runs the
    search and returns its trace."""
    original, target = dataset.test[0], dataset.test[1]
    support = np.zeros(original.pixels.shape, dtype=bool)
    support[:2] = True
    objective = RetrievalObjective(service, original, target)
    return lambda: simba_search(
        original, objective, support, tau=0.1, iterations=iterations,
        rng=np.random.default_rng(0)).trace


def attack_run(extractor, dataset, resilience, iterations,
               fault_plan=None):
    """One seeded SimBA loop on a fresh service; returns
    ``(trace, query_count)``."""
    service = build_service(extractor, dataset, resilience)
    if fault_plan is None:
        trace = attack_setup(service, dataset, iterations)()
    else:
        with fault_plan.install(service.engine.gallery):
            trace = attack_setup(service, dataset, iterations)()
    return trace, service.query_count


def bench_wrapper_overhead(extractor, dataset, iterations):
    """Fault-free attack loop: resilience stack on (r=1) vs off."""
    def config(resilience):
        service = build_service(extractor, dataset, resilience)
        return lambda: attack_setup(service, dataset, iterations)

    timing = interleave({"plain": config(None),
                         "resilient": config(wrapper_config())}, ROUNDS)
    overhead = timing.ratio("resilient", "plain")
    return {
        "iterations": iterations,
        "rounds": ROUNDS,
        "plain_s": timing.median("plain"),
        "resilient_s": timing.median("resilient"),
        "overhead": overhead["median"] - 1.0,
        "overhead_iqr": [q - 1.0 for q in overhead["iqr"]],
    }


def bench_gallery_micro() -> dict:
    """Scatter/gather wall time: plain vs wrapped r=1 vs replicated r=2."""
    rng = np.random.default_rng(2)
    rows, dim, queries = 2000, 16, 64
    ids = [f"v{i}" for i in range(rows)]
    labels = [i % 10 for i in range(rows)]
    features = rng.normal(size=(rows, dim))
    probes = rng.normal(size=(queries, dim))

    def config(resilience):
        gallery = ShardedGallery(num_nodes=4, resilience=resilience)
        gallery.add_batch(ids, labels, features)

        def body():
            for probe in probes:
                gallery.search(probe, k=8)
        return lambda: body

    timing = interleave(
        {"plain": config(None), "resilient_r1": config(wrapper_config()),
         "replicated_r2": config(wrapper_config(replication=2))}, ROUNDS)
    return {
        "gallery_rows": rows,
        "queries": queries,
        **{f"{key}_us": timing.median(key) * 1e6 / queries
           for key in timing.samples},
        "r1_overhead":
            timing.ratio("resilient_r1", "plain")["median"] - 1.0,
        "r2_cost_ratio": timing.ratio("replicated_r2", "plain")["median"],
    }


def bench_faulted_recovery(extractor, dataset, iterations) -> dict:
    """Kill one of four nodes from the attack's 7th query (logical id 6)
    on, under r=2; results must not move."""
    clean_trace, clean_queries = attack_run(
        extractor, dataset, wrapper_config(replication=2), iterations)
    plan = FaultPlan(seed=1).outage("node-1", 6, 10 ** 9)
    faulted_trace, faulted_queries = attack_run(
        extractor, dataset, wrapper_config(replication=2), iterations,
        fault_plan=plan)
    outages = sum(1 for _, _, kind in plan.timeline() if kind == "outage")
    return {
        "iterations": iterations,
        "outage_events": outages,
        "identical_trace": faulted_trace == clean_trace,
        "identical_queries": faulted_queries == clean_queries,
    }


def bench_keyed_faults(extractor, dataset, iterations) -> dict:
    """One SimBA attack under flaky + corrupt + outage, speculating and on
    the one-query-per-candidate qa reference."""
    original, target = dataset.test[0], dataset.test[1]
    support = np.zeros(original.pixels.shape, dtype=bool)
    support[:2] = True
    runs, interruptions = {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        for sequential in (True, False):
            service = build_service(extractor, dataset,
                                    wrapper_config(replication=2))
            plan = (FaultPlan(seed=3).flaky("node-0", 0.3)
                    .corrupt("node-2", 0.3).outage(ANY_NODE, 9, 12))
            with plan.install(service.engine.gallery):
                for _ in range(50):
                    try:
                        objective = RetrievalObjective(service, original,
                                                       target)
                        report = simba_search(
                            original, SequentialObjective(objective)
                            if sequential else objective,
                            support, tau=0.1, iterations=iterations,
                            rng=np.random.default_rng(0),
                            checkpoint_path=Path(tmp) / f"{sequential}.pkl")
                        break
                    except RetrievalUnavailable:
                        interruptions += 1
                else:
                    raise RuntimeError("SimBA never escaped the outage")
            runs[sequential] = {
                "queries": report.queries,
                "trace": report.trace,
                "ledger": (service.query_count, service.queries_issued,
                           service.queries_refunded),
                "timeline": plan.timeline(),
            }
    return {
        "iterations": iterations,
        "interruptions": interruptions,
        "fault_events": len(runs[True]["timeline"]),
        **{f"identical_{key}": runs[True][key] == runs[False][key]
           for key in runs[True]},
    }


def bench_checkpoint() -> dict:
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
        timing = interleave(
            {"save": lambda: lambda: save_checkpoint(path, checkpoint),
             "load": lambda: lambda: load_checkpoint(path)}, ROUNDS)
        size = path.stat().st_size
    return {
        "payload_bytes": size,
        "save_us": timing.median("save") * 1e6,
        "load_us": timing.median("load") * 1e6,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the resilience subsystem.")
    parser.add_argument("--smoke", action="store_true",
                        help="shorter attack loop for CI; never records")
    args = parser.parse_args(argv)

    iterations = SMOKE_ITERATIONS if args.smoke else ITERATIONS
    extractor, dataset = build_fixture()
    result = {
        "bench": "resilience",
        "timestamp": time.time(),
        "smoke": args.smoke,
        "overhead_budget": OVERHEAD_BUDGET,
        "wrapper_overhead": bench_wrapper_overhead(
            extractor, dataset, iterations),
        "gallery_micro": bench_gallery_micro(),
        "faulted_recovery": bench_faulted_recovery(
            extractor, dataset, iterations),
        "keyed_faults": bench_keyed_faults(extractor, dataset, iterations),
        "checkpoint": bench_checkpoint(),
    }

    failures = []
    if result["wrapper_overhead"]["overhead"] > OVERHEAD_BUDGET:
        failures.append(
            f"fault-free wrapper overhead "
            f"{result['wrapper_overhead']['overhead']:.1%} exceeds "
            f"{OVERHEAD_BUDGET:.0%} budget")
    recovery = result["faulted_recovery"]
    if not recovery["identical_trace"]:
        failures.append("faulted r=2 run diverged from the fault-free trace")
    if not recovery["identical_queries"]:
        failures.append("faulted r=2 run changed the query accounting")
    if not recovery["outage_events"]:
        failures.append("the scripted outage never fired")
    keyed = result["keyed_faults"]
    failures.extend(
        f"speculating and sequential faulted SimBA differ in {key[10:]}"
        for key, same in keyed.items()
        if key.startswith("identical_") and not same)
    if not keyed["interruptions"]:
        failures.append("the keyed-fault outage never interrupted SimBA")
    return finish("resilience", result, failures, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
