"""Measure the overhead of the ``repro.obs`` instrumentation.

Runs the same small black-box attack loop (Vanilla: random support +
SimBA over a live retrieval service) with tracing force-disabled and
force-enabled, interleaved round by round, and micro-benches the
disabled-path primitives.  A full run records ``BENCH_obs.json`` at the
repo root; ``--smoke`` only prints.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke   # CI

``overhead_pct`` is the median enabled-vs-disabled ratio over pairs of
rounds (with its quartiles in ``overhead_pct_iqr``), and ``span_disabled_ns``
prices a single no-op span call.  The service runs without an embedding
cache, so every round does the same work.
"""

from __future__ import annotations

import argparse
import sys
import time
import timeit
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from common import finish, interleave  # noqa: E402
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

#: SimBA iterations per attack run (full run, ``--smoke``), and
#: interleaved rounds.
ITERATIONS, SMOKE_ITERATIONS = 300, 40
ROUNDS = 16


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
    engine = RetrievalEngine(extractor, num_nodes=3, cache_size=0)
    engine.index_videos(dataset.train)
    service = RetrievalService.build(engine, m=8)
    return service, dataset.test[0], dataset.test[1]


def attack_configs(service, original, target, iterations: int) -> dict:
    """Tracing off / on around one seeded Vanilla attack run."""
    def setup(tracing: bool):
        if tracing:
            enable_tracing()
            get_tracer().reset()
        else:
            disable_tracing()
        attack = build_attack(
            AttackConfig(strategy="vanilla", k=48, n=3,
                         iterations=iterations, seed=0),
            service=service)

        def body():
            attack.run(original, target)
            return get_tracer().num_records
        return body

    return {"off": lambda: setup(False), "on": lambda: setup(True)}


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
    parser.add_argument("--smoke", action="store_true",
                        help="small run for CI; never records")
    args = parser.parse_args(argv)

    iterations = SMOKE_ITERATIONS if args.smoke else ITERATIONS
    service, original, target = build_service()
    try:
        timing = interleave(
            attack_configs(service, original, target, iterations), ROUNDS)
    finally:
        use_env_tracing()
    overhead = timing.ratio("on", "off")

    result = {
        "bench": "obs_overhead",
        "timestamp": time.time(),
        "smoke": args.smoke,
        "iterations": iterations,
        "rounds": ROUNDS,
        "trace_off_s": timing.median("off"),
        "trace_on_s": timing.median("on"),
        "overhead_pct": (overhead["median"] - 1.0) * 100.0,
        "overhead_pct_iqr": [(q - 1.0) * 100.0 for q in overhead["iqr"]],
        "span_records_on": timing.results["on"],
        **primitive_costs(),
    }
    return finish("obs", result, [], args.smoke)


if __name__ == "__main__":
    sys.exit(main())
