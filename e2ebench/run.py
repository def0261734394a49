"""End-to-end benchmark: DUO attack time and serving cost, split by layer.

Run from the repository root::

    python3 e2ebench/run.py --workload duo --seed 1 --seconds 10 --trace 0

One run builds the victim several times (``setup_s`` is the median),
runs one untimed warm-up task, then repeats tasks of the chosen workload
(see ``workloads.py``) until ``--seconds`` have passed, and checks the
program's outputs against a brute-force reference.

``--trace 0`` reports the end-to-end metrics with every wrapper off:

* ``task_best_s`` wall time of one task — one whole DUO attack, or
  draining one 160-request timeline — as each input variant's fastest
  repeat, averaged over variants (:func:`best_of_repeats` says why);
* ``setup_s``     median time to build and index the victim.

Time per victim query is not an end-to-end metric: an attack's query
count swings with how often SimBA's first candidate is accepted, while
its speculative pair evaluation costs the same either way.

``--trace 1`` wraps each layer's entry points (``layers.py``) and reports
per-layer self time in ms per victim query, the victim forward split by
op family, the embedding-cache hit rate and the forward batch size.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

from layers import LAYERS, OPS, LayerClock

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Victim builds per run; ``setup_s`` is their median.
SETUPS = 7
#: Fewest repeats of each input variant per run, however long they take.
MIN_REPEATS = 2


def pin_environment() -> None:
    """Pin every knob the program reads from the environment.

    ``REPRO_*`` flags select implementations and defaults, so a stray
    one in the caller's shell would change what is measured; BLAS gets
    one thread so runs do not fight over cores.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_TRACE"] = "0"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("duo", "serve", "churn"))
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def best_of_repeats(results) -> float:
    """Mean over input variants of each variant's fastest repeat.

    The machine is shared, and other tenants' load only ever adds time,
    in bursts that can cover half a run; the fastest of many identical
    repeats is far steadier from run to run than any median, and
    averaging over variants keeps one lucky input from deciding.
    """
    best: dict[int, float] = {}
    for result in results:
        best[result.variant] = min(best.get(result.variant, math.inf),
                                   result.wall_s)
    return statistics.fmean(best.values())


def end_to_end(results, setup_times: list[float]) -> dict:
    return {
        "task_best_s": metric(best_of_repeats(results), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }


def per_layer(results, clock) -> dict:
    self_s, calls, op_s = clock.totals()
    queries = sum(r.queries for r in results)
    metrics = {f"{layer}_ms": metric(self_s[layer] / queries * 1e3,
                                     "ms/query") for layer in LAYERS}
    metrics.update({f"op.{op}_ms": metric(op_s[op] / queries * 1e3,
                                          "ms/query") for op in OPS})
    hits = sum(r.cache["hits"] for r in results)
    misses = sum(r.cache["misses"] for r in results)
    metrics["cache.hit_pct"] = metric(100.0 * hits / max(hits + misses, 1),
                                      "%")
    metrics["model.clips_per_forward"] = metric(
        misses / max(calls["model.forward"], 1), "count")
    metrics["queries_per_task"] = metric(queries / len(results), "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"e2ebench: no program sources at {SOURCE}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SOURCE))
    from workloads import VARIANTS, WORKLOADS, CheckFailed

    workload = WORKLOADS[args.workload](args.seed)
    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        victim = workload.setup()
        setup_times.append(time.perf_counter() - start)
    workload.task(victim, 0)  # warm-up: first-call allocations and plans

    clock = None
    if args.trace:
        clock = LayerClock()
        clock.install(victim.extractor)
    results = []
    deadline = time.perf_counter() + args.seconds
    try:
        while len(results) < MIN_REPEATS * VARIANTS \
                or time.perf_counter() < deadline:
            result = workload.task(victim, len(results))
            if results:  # only the first task's outputs are kept
                result.output = None
            results.append(result)
    except CheckFailed as exc:
        print(f"e2ebench: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if clock is not None:
            clock.uninstall()

    correct = True
    try:
        workload.check(victim, results[0])
    except CheckFailed as exc:
        print(f"e2ebench: check failed: {exc}", file=sys.stderr)
        correct = False
    metrics = per_layer(results, clock) if clock is not None \
        else end_to_end(results, setup_times)
    print(f"e2ebench: {args.workload} seed={args.seed} tasks={len(results)} "
          f"variants={VARIANTS} median task "
          f"{statistics.median(r.wall_s for r in results):.4f}s "
          f"setups={SETUPS}", flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
