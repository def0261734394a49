"""Benchmark the trace-and-fuse execution layer (``repro.nn.jit``).

Two measurements:

1. **per-model forward** — eager vs traced replay (``fuse=False``) vs
   traced+fused replay (``fuse=True``) at the attack batch shapes, for
   the ResNet18+LSTM victim and the C3D surrogate.  Replay skips graph
   construction and Python op dispatch; fusion additionally collapses
   elementwise chains into shared buffers.
2. **surrogate gradient** — one C3D surrogate forward + input-gradient
   backward at the DUO clip shape, the pass SparseTransfer and TIMI make
   per step: eager vs ``FeatureExtractor.embed_tensor``'s grad-mode
   replay.  The replayed input gradient must equal the eager one byte
   for byte; the speedup is printed, not gated.
3. **end-to-end SparseQuery** — the black-box attack loop against a live
   victim service on the eager reference forward (under
   :func:`repro.qa.eager_forwards`) vs the production trace replay.
   The victim embedding forward
   dominates the query path, so this is the headline number the ROADMAP
   gate reads (≥1.5× over the current fast path in the full run).

Usage::

    PYTHONPATH=src python benchmarks/bench_jit.py           # full
    PYTHONPATH=src python benchmarks/bench_jit.py --smoke   # CI

The full run records ``BENCH_jit.json`` at the repo root.  ``--smoke``
is the CI gate: it asserts replay stays bit-identical on the bench
fixture (forwards and the surrogate input gradient), holds the fused
speedups above a 1.3× floor, and fails if a
ratio regressed more than 10% against the recorded baseline (ratios,
not wall times, so the check is machine-independent).  Smoke never
overwrites the baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.models import create_feature_extractor  # noqa: E402
from repro.nn import Tensor, jit, no_grad  # noqa: E402
from repro.qa import eager_forwards  # noqa: E402
from repro.qa.pairs import _qa_priors, duo_query_attack  # noqa: E402
from repro.qa.world import build_world  # noqa: E402

#: Victim and surrogate extractors at the attack batch shapes.
MODEL_CASES = [
    ("resnet18.b2", "resnet18", (2, 3, 8, 16, 16)),
    ("resnet18.b1", "resnet18", (1, 3, 8, 16, 16)),
    ("c3d.b1", "c3d", (1, 3, 6, 12, 12)),
]


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def interleaved_best(fns: list, trials: int) -> list[float]:
    """Min-of-``trials`` for N thunks, alternating every trial."""
    for fn in fns:  # joint warm-up (traces, conv plans, BLAS init)
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(trials):
        for i, fn in enumerate(fns):
            best[i] = min(best[i], _time_once(fn))
    return best


def bench_models(trials: int) -> list[dict]:
    rows = []
    for name, backbone, shape in MODEL_CASES:
        extractor = create_feature_extractor(backbone, feature_dim=16,
                                             width=2, rng=0)
        extractor.eval()
        extractor.requires_grad_(False)
        traced = jit.compile(extractor, fuse=False)
        fused = jit.CompiledModule(extractor, fuse=True)
        x = Tensor(np.random.default_rng(1).standard_normal(shape))

        def eager_fn(extractor=extractor, x=x):
            with no_grad():
                extractor(x)

        def traced_fn(traced=traced, x=x):
            with no_grad():
                traced(x)

        def fused_fn(fused=fused, x=x):
            with no_grad():
                fused(x)

        # Replay must stay bit-identical on the bench fixture itself.
        with no_grad():
            reference = extractor(x).data
            np.testing.assert_array_equal(reference, traced(x).data)
            np.testing.assert_array_equal(reference, fused(x).data)

        eager_s, traced_s, fused_s = interleaved_best(
            [eager_fn, traced_fn, fused_fn], trials)
        rows.append({
            "name": name,
            "eager_us": eager_s * 1e6,
            "traced_us": traced_s * 1e6,
            "fused_us": fused_s * 1e6,
            "traced_speedup": eager_s / traced_s,
            "fused_speedup": eager_s / fused_s,
            "fused_steps": fused.stats()["fused_steps"],
            "bytes_saved": fused.stats()["bytes_saved"],
        })
    return rows


#: The surrogate-gradient pass: C3D at DUO's ``(1, C, T, H, W)`` clip.
GRAD_CASE = ("c3d.grad.b1", "c3d", (1, 3, 8, 16, 16))


def bench_surrogate_grad(trials: int) -> dict:
    """Eager vs grad-mode replay of one surrogate forward + backward."""
    name, backbone, shape = GRAD_CASE
    extractor = create_feature_extractor(backbone, feature_dim=16, width=4,
                                         rng=0)
    extractor.eval()
    extractor.requires_grad_(False)
    x_data = np.random.default_rng(2).random(shape)

    def input_grad(embed) -> np.ndarray:
        x = Tensor(x_data, requires_grad=True)
        (embed(x) ** 2).sum().backward()
        return x.grad

    eager = input_grad(extractor)
    input_grad(extractor.embed_tensor)  # traces the grad-mode program
    replayed = input_grad(extractor.embed_tensor)
    if replayed.tobytes() != eager.tobytes():
        raise AssertionError(
            f"{name}: replayed input gradient differs from eager (max "
            f"|diff| {np.abs(replayed - eager).max():.3g})")
    eager_s, replay_s = interleaved_best(
        [lambda: input_grad(extractor),
         lambda: input_grad(extractor.embed_tensor)], trials)
    return {"name": name, "eager_us": eager_s * 1e6,
            "replay_us": replay_s * 1e6, "speedup": eager_s / replay_s}


def sparse_query_seconds(fuse: bool, iterations: int, repeats: int) -> float:
    """Best-of-``repeats`` wall time of a seeded DUO query-stage attack.

    ``fuse=False`` runs every victim forward on the eager reference.
    """
    best = float("inf")
    for repeat in range(repeats):
        world = build_world(73, cache_size=0)
        priors = _qa_priors(world.original.pixels.shape, repeat + 9)
        attack = duo_query_attack(priors, iterations, world.service, repeat,
                                  batched=True)
        with contextlib.nullcontext() if fuse else eager_forwards():
            # Issue the attack's two reference queries untimed first:
            # replay traces each new batch shape on first use, and the
            # timed region covers the search loop, not that one-off trace.
            world.service.query(world.original)
            world.service.query(world.target)
            start = time.perf_counter()
            attack.run(world.original, world.target)
            best = min(best, time.perf_counter() - start)
    return best


def check_regression(result: dict, baseline_path: Path,
                     tolerance: float = 0.10) -> list[str]:
    """Compare speedup *ratios* against the recorded baseline."""
    if not baseline_path.exists():
        return [f"no recorded baseline at {baseline_path}; skipping check"]
    baseline = json.loads(baseline_path.read_text())
    failures = []
    checks = [
        ("fused min", result["fused_min_speedup"],
         baseline.get("fused_min_speedup")),
        ("sparse query", result["sparse_query"]["speedup"],
         baseline.get("sparse_query", {}).get("speedup")),
    ]
    for label, measured, recorded in checks:
        if recorded is None:
            continue
        floor = recorded * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"{label} speedup regressed: {measured:.2f}x < "
                f"{floor:.2f}x (recorded {recorded:.2f}x - {tolerance:.0%})")
    return failures


#: Absolute floor the smoke gate holds the fused speedups to.
SMOKE_FLOOR = 1.3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark trace-and-fuse replay vs eager execution.")
    parser.add_argument("--iterations", type=int, default=60,
                        help="SparseQuery pixel iterations per attack run")
    parser.add_argument("--repeats", type=int, default=3,
                        help="attack runs per configuration (min is kept)")
    parser.add_argument("--trials", type=int, default=40,
                        help="interleaved trials per model forward")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: quick run, assert bit-identity, "
                             f"{SMOKE_FLOOR}x floor, and no regression vs "
                             "the recorded baseline")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_jit.json"),
                        help="output JSON path (full runs only)")
    args = parser.parse_args(argv)

    iterations = 12 if args.smoke else args.iterations
    repeats = 1 if args.smoke else args.repeats
    trials = 10 if args.smoke else args.trials

    model_rows = bench_models(trials)
    grad_row = bench_surrogate_grad(trials)
    eager_s = sparse_query_seconds(False, iterations, repeats)
    fused_s = sparse_query_seconds(True, iterations, repeats)

    result = {
        "bench": "jit",
        "timestamp": time.time(),
        "smoke": args.smoke,
        "models": model_rows,
        "fused_min_speedup": min(row["fused_speedup"] for row in model_rows),
        "surrogate_grad": grad_row,
        "sparse_query": {
            "iterations": iterations,
            "repeats": repeats,
            "eager_s": eager_s,
            "fused_s": fused_s,
            "speedup": eager_s / fused_s,
        },
    }
    print(json.dumps(result, indent=2))

    out_path = Path(args.out)
    if args.smoke:
        # The smoke run gates; it never overwrites the recorded baseline.
        failures = []
        if result["fused_min_speedup"] < SMOKE_FLOOR:
            failures.append(
                f"fused model speedup {result['fused_min_speedup']:.2f}x "
                f"below the {SMOKE_FLOOR}x floor")
        if result["sparse_query"]["speedup"] < SMOKE_FLOOR:
            failures.append(
                f"end-to-end SparseQuery speedup "
                f"{result['sparse_query']['speedup']:.2f}x below the "
                f"{SMOKE_FLOOR}x floor")
        notes = check_regression(result, out_path)
        for note in notes:
            print(f"[bench_jit] {note}")
        failures += [note for note in notes if "regressed" in note]
        if failures:
            for failure in failures:
                print(f"[bench_jit] FAIL: {failure}")
            return 1
        print("[bench_jit] smoke OK")
    else:
        out_path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"[bench_jit] wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
