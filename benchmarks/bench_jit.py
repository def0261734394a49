"""Benchmark the trace-and-fuse execution layer (``repro.nn.jit``).

Three measurements, each an interleaved A/B through
``common.interleave``:

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
   :func:`repro.qa.eager_forwards`) vs the production trace replay, on
   one warm world per configuration.  The victim embedding forward
   dominates the query path, so this is the headline number.

Usage::

    PYTHONPATH=src python benchmarks/bench_jit.py           # full
    PYTHONPATH=src python benchmarks/bench_jit.py --smoke   # CI

The full run records ``BENCH_jit.json`` at the repo root.  Every run
asserts replay stays bit-identical on the bench fixture (forwards and
the surrogate input gradient), holds the median fused speedups above a
1.3x floor, and fails if a median ratio fell more than 10% under the
recorded baseline.  ``--smoke`` runs the same measurements and never
records.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from common import finish, interleave, recorded, regressions  # noqa: E402
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

#: Interleaved rounds per forward/gradient case.
TRIALS = 200
#: SparseQuery pixel iterations per attack run, and interleaved rounds.
ITERATIONS, ROUNDS = 60, 32

#: Absolute floor for the median fused and end-to-end speedups.
SPEEDUP_FLOOR = 1.3

#: Median ratios gated against the recorded baseline.
REGRESSION_CHECKS = ["fused_min_speedup", "sparse_query.speedup"]


def bench_models() -> list[dict]:
    rows = []
    for name, backbone, shape in MODEL_CASES:
        extractor = create_feature_extractor(backbone, feature_dim=16,
                                             width=2, rng=0)
        extractor.eval()
        extractor.requires_grad_(False)
        traced = jit.compile(extractor, fuse=False)
        fused = jit.CompiledModule(extractor, fuse=True)
        x = Tensor(np.random.default_rng(1).standard_normal(shape))

        # Replay must stay bit-identical on the bench fixture itself.
        with no_grad():
            reference = extractor(x).data
            np.testing.assert_array_equal(reference, traced(x).data)
            np.testing.assert_array_equal(reference, fused(x).data)

        def forward(module, x=x):
            def body():
                with no_grad():
                    module(x)
            return lambda: body

        timing = interleave({"eager": forward(extractor),
                             "traced": forward(traced),
                             "fused": forward(fused)}, TRIALS)
        rows.append({
            "name": name,
            "eager_us": timing.median("eager") * 1e6,
            "traced_us": timing.median("traced") * 1e6,
            "fused_us": timing.median("fused") * 1e6,
            "traced_speedup": timing.ratio("eager", "traced")["median"],
            "fused_speedup": timing.ratio("eager", "fused")["median"],
            "fused_speedup_iqr": timing.ratio("eager", "fused")["iqr"],
            "fused_steps": fused.stats()["fused_steps"],
            "bytes_saved": fused.stats()["bytes_saved"],
        })
    return rows


#: The surrogate-gradient pass: C3D at DUO's ``(1, C, T, H, W)`` clip.
GRAD_CASE = ("c3d.grad.b1", "c3d", (1, 3, 8, 16, 16))


def bench_surrogate_grad() -> dict:
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
    timing = interleave(
        {"eager": lambda: lambda: input_grad(extractor),
         "replay": lambda: lambda: input_grad(extractor.embed_tensor)},
        TRIALS)
    return {"name": name, "eager_us": timing.median("eager") * 1e6,
            "replay_us": timing.median("replay") * 1e6,
            "speedup": timing.ratio("eager", "replay")["median"]}


def bench_sparse_query() -> dict:
    """A seeded DUO query-stage attack: eager forwards vs replay.

    Each configuration keeps one world (no embedding cache), so its
    warm-up run traces every batch shape the attack uses and the timed
    rounds read steady-state forwards.
    """
    def config(eager: bool):
        world = build_world(73, cache_size=0)
        priors = _qa_priors(world.original.pixels.shape, 9)

        def setup():
            attack = duo_query_attack(priors, ITERATIONS, world.service, 0)

            def body():
                with eager_forwards() if eager else contextlib.nullcontext():
                    attack.run(world.original, world.target)
            return body
        return setup

    timing = interleave({"eager": config(True), "fused": config(False)},
                        ROUNDS)
    speedup = timing.ratio("eager", "fused")
    return {
        "iterations": ITERATIONS,
        "rounds": ROUNDS,
        "eager_s": timing.median("eager"),
        "fused_s": timing.median("fused"),
        "speedup": speedup["median"],
        "speedup_iqr": speedup["iqr"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark trace-and-fuse replay vs eager execution.")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: same run, never records")
    args = parser.parse_args(argv)

    model_rows = bench_models()
    result = {
        "bench": "jit",
        "timestamp": time.time(),
        "smoke": args.smoke,
        "models": model_rows,
        "fused_min_speedup": min(row["fused_speedup"] for row in model_rows),
        "surrogate_grad": bench_surrogate_grad(),
        "sparse_query": bench_sparse_query(),
    }

    failures = [f"{label} speedup {value:.2f}x below the "
                f"{SPEEDUP_FLOOR}x floor"
                for label, value in (
                    ("fused model", result["fused_min_speedup"]),
                    ("end-to-end SparseQuery",
                     result["sparse_query"]["speedup"]))
                if value < SPEEDUP_FLOOR]
    failures += regressions(result, recorded("jit"), REGRESSION_CHECKS)
    return finish("jit", result, failures, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
