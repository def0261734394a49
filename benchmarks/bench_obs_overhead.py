"""Measure the overhead of the ``repro.obs`` instrumentation.

Runs the same small black-box attack loop (Vanilla: random support +
SimBA over a live retrieval service) twice — tracing force-disabled and
force-enabled — and micro-benches the disabled-path primitives.  A full
run writes the datapoint to ``BENCH_obs.json`` at the repo root: the
first entry of the perf trajectory every later optimisation PR measures
against.  ``--smoke`` only prints; it never overwrites the recorded
baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke   # CI

The acceptance bar is that the *disabled* path stays under 5% of the
loop's wall time; ``overhead_pct`` in the JSON is the enabled-vs-disabled
ratio, and ``span_disabled_ns`` prices a single no-op span call.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import timeit
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.attacks import AttackConfig, build_attack  # noqa: E402
from repro.models import create_feature_extractor  # noqa: E402
from repro.obs import (  # noqa: E402
    counter,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    use_env_tracing,
)
from repro.retrieval import RetrievalEngine, RetrievalService  # noqa: E402
from repro.video import load_dataset  # noqa: E402


def build_service(seed: int = 0) -> tuple[RetrievalService, object, object]:
    """A tiny victim service (untrained extractor — speed, not accuracy)."""
    dataset = load_dataset(
        "ucf101", num_classes=4, train_videos=16, test_videos=4,
        height=12, width=12, num_frames=6, seed=seed,
    )
    extractor = create_feature_extractor(
        "c3d", feature_dim=16, width=2, rng=seed)
    extractor.eval()
    extractor.requires_grad_(False)
    engine = RetrievalEngine(extractor, num_nodes=3)
    engine.index_videos(dataset.train)
    service = RetrievalService.build(engine, m=8)
    return service, dataset.test[0], dataset.test[1]


def attack_loop_seconds(service, original, target, iterations: int,
                        repeats: int) -> float:
    """Best-of-``repeats`` wall time of one Vanilla attack run."""
    best = float("inf")
    for repeat in range(repeats):
        attack = build_attack(
            AttackConfig(strategy="vanilla", k=48, n=3,
                         iterations=iterations, seed=repeat),
            service=service)
        start = time.perf_counter()
        attack.run(original, target)
        best = min(best, time.perf_counter() - start)
    return best


def primitive_costs() -> dict[str, float]:
    """Per-call nanosecond cost of the disabled-path primitives."""
    disable_tracing()
    try:
        loops = 100_000
        span_s = timeit.timeit(lambda: span("bench.noop"), number=loops)
        handle = counter("bench.noop")
        counter_s = timeit.timeit(handle.inc, number=loops)
        lookup_s = timeit.timeit(lambda: counter("bench.noop").inc(),
                                 number=loops)
    finally:
        use_env_tracing()
    return {
        "span_disabled_ns": span_s / loops * 1e9,
        "counter_inc_ns": counter_s / loops * 1e9,
        "counter_lookup_inc_ns": lookup_s / loops * 1e9,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark repro.obs tracing overhead.")
    parser.add_argument("--iterations", type=int, default=300,
                        help="SimBA iterations per attack run")
    parser.add_argument("--repeats", type=int, default=3,
                        help="attack runs per configuration (min is kept)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for CI (overrides iterations/repeats)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_obs.json"),
                        help="output JSON path (full runs only)")
    args = parser.parse_args(argv)

    iterations = 40 if args.smoke else args.iterations
    repeats = 1 if args.smoke else args.repeats

    service, original, target = build_service()
    # Warm-up: touch every code path once (BLAS init, caches).
    attack_loop_seconds(service, original, target, iterations=5, repeats=1)

    disable_tracing()
    try:
        off_s = attack_loop_seconds(service, original, target,
                                    iterations, repeats)
    finally:
        use_env_tracing()

    enable_tracing()
    tracer = get_tracer()
    tracer.reset()
    try:
        on_s = attack_loop_seconds(service, original, target,
                                   iterations, repeats)
        records = tracer.num_records
    finally:
        use_env_tracing()

    result = {
        "bench": "obs_overhead",
        "timestamp": time.time(),
        "smoke": args.smoke,
        "iterations": iterations,
        "repeats": repeats,
        "trace_off_s": off_s,
        "trace_on_s": on_s,
        "overhead_pct": (on_s / off_s - 1.0) * 100.0,
        "span_records_on": records,
        **primitive_costs(),
    }
    print(json.dumps(result, indent=2))
    if not args.smoke:
        out_path = Path(args.out)
        out_path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"[bench_obs_overhead] wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
