"""Benchmark the ``repro.perf`` hot paths against the seed implementations.

The hot paths, measured at the model shapes the repro actually runs,
each an interleaved A/B through ``common.interleave`` (interleaving
cancels cache/turbo drift):

1. **conv forward** — strided-einsum (seed) vs im2col GEMM per shape.
2. **query-attack loop** — a SimBA rectification loop against a live
   victim service, "before" (einsum convs + sequential ±ε evaluation
   through the qa ``SequentialObjective``) vs "after" (GEMM convs +
   speculative pair batching).
3. **frame-incremental embedding** — the same SimBA loop against a
   ResNet-18+LSTM victim, cacheless vs the default embedding cache,
   which re-encodes only each candidate's changed frame and resumes
   the LSTM at it.
4. **retrieval internals** — batched vs scalar gallery search, and the
   embedding-cache hit vs a full model forward.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_hotpath.py           # full
    PYTHONPATH=src python benchmarks/bench_perf_hotpath.py --smoke   # CI

The "before" legs run the strided-einsum convs of ``repro.qa.reference``
(the seed implementation, kept as the oracle reference), swapped into
``repro.nn.functional`` for that leg only; production convs are GEMM.

The full run records ``BENCH_perf.json`` at the repo root — the baseline
later PRs are held to.  Every run asserts each model-shape conv lands
on the GEMM op and fails if a median speedup ratio fell more than 10%
under the recorded baseline (ratios, not wall times, so the check is
machine-independent).  ``--smoke`` runs the same measurements and never
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
from repro.attacks.objective import RetrievalObjective  # noqa: E402
from repro.attacks.search import simba_search  # noqa: E402
from repro.models import create_feature_extractor  # noqa: E402
from repro.nn import Tensor, no_grad  # noqa: E402
from repro.nn import functional as F  # noqa: E402
from repro.perf.cache import DEFAULT_CAPACITY  # noqa: E402
from repro.qa import reference  # noqa: E402
from repro.retrieval import (  # noqa: E402
    FeatureIndex,
    RetrievalEngine,
    RetrievalService,
)
from repro.video import load_dataset  # noqa: E402

#: Conv problems taken from the victim/surrogate models at bench scale:
#: the C3D stem and mid blocks (query embedding), and the stem at the
#: speculative ±ε pair batch — the exact shape the attack hot loop runs.
CONV_CASES = [
    ("conv3d.stem.b1", F.conv3d, (1, 3, 6, 12, 12), (2, 3, 3, 3, 3), 1, 1),
    ("conv3d.mid.b1", F.conv3d, (1, 2, 6, 6, 6), (4, 2, 3, 3, 3), 1, 1),
    ("conv3d.stem.b2", F.conv3d, (2, 3, 6, 12, 12), (2, 3, 3, 3, 3), 1, 1),
    ("conv2d.stem.b4", F.conv2d, (4, 3, 16, 16), (8, 3, 3, 3), 1, 1),
]


@contextlib.contextmanager
def einsum_convs():
    """Run ``repro.nn.functional``'s convs as the qa einsum reference."""
    saved = F.conv2d, F.conv3d
    F.conv2d, F.conv3d = reference.conv2d, reference.conv3d
    try:
        yield
    finally:
        F.conv2d, F.conv3d = saved


#: Interleaved rounds per micro-bench.
TRIALS = 200
#: SimBA iterations per attack run, and interleaved rounds.
ITERATIONS, ROUNDS = 150, 22

#: Median ratios gated against the recorded baseline.
REGRESSION_CHECKS = ["attack.speedup", "conv_min_speedup",
                     "frame_incremental.speedup", "batched_search.speedup"]


def bench_conv() -> list[dict]:
    rng = np.random.default_rng(0)
    rows = []
    for name, conv, x_shape, w_shape, stride, padding in CONV_CASES:
        x = Tensor(rng.normal(size=x_shape))
        w = Tensor(rng.normal(size=w_shape))

        def run(conv, x=x, w=w, stride=stride, padding=padding):
            def body():
                with no_grad():
                    conv(x, w, stride=stride, padding=padding)
            return lambda: body

        ref_conv = getattr(reference, conv.__name__)
        timing = interleave({"einsum": run(ref_conv), "gemm": run(conv)},
                            TRIALS)
        rows.append({
            "name": name,
            "einsum_us": timing.median("einsum") * 1e6,
            "gemm_us": timing.median("gemm") * 1e6,
            "speedup": timing.ratio("einsum", "gemm")["median"],
        })
    return rows


def build_attack_fixture(seed: int = 0):
    """A tiny victim model + dataset (untrained model — speed only)."""
    dataset = load_dataset(
        "ucf101", num_classes=4, train_videos=16, test_videos=4,
        height=12, width=12, num_frames=6, seed=seed,
    )
    extractor = create_feature_extractor(
        "c3d", feature_dim=16, width=2, rng=seed)
    extractor.eval()
    extractor.requires_grad_(False)
    return extractor, dataset


def bench_attack_loop(extractor, dataset) -> dict:
    """A seeded SimBA rectification loop, before vs after.

    Both configurations run cacheless, so the ratio isolates the convs
    and the pair batching.  Every SimBA candidate has unique pixels, so
    no clip-level cache entry ever hits here, and this C3D victim mixes
    frames in its convolutions, so it declines frame-level reuse too;
    :func:`bench_frame_incremental` measures that reuse on a
    frame-separable victim.
    """
    original, target = dataset.test[0], dataset.test[1]
    support = np.zeros(original.pixels.shape, dtype=bool)
    support[:2] = True

    def config(einsum: bool, sequential: bool):
        engine = RetrievalEngine(extractor, num_nodes=3, cache_size=0)
        engine.index_videos(dataset.train)
        service = RetrievalService.build(engine, m=8)

        def convs():
            return einsum_convs() if einsum else contextlib.nullcontext()

        def setup():
            with convs():
                objective = RetrievalObjective(service, original, target)
            if sequential:
                objective = reference.SequentialObjective(objective)

            def body():
                with convs():
                    simba_search(original, objective, support, tau=0.1,
                                 iterations=ITERATIONS,
                                 rng=np.random.default_rng(0))
            return body
        return setup

    timing = interleave(
        {"sequential_einsum": config(einsum=True, sequential=True),
         "batched_gemm": config(einsum=False, sequential=False)}, ROUNDS)
    speedup = timing.ratio("sequential_einsum", "batched_gemm")
    return {
        "iterations": ITERATIONS,
        "rounds": ROUNDS,
        "sequential_einsum_s": timing.median("sequential_einsum"),
        "batched_gemm_s": timing.median("batched_gemm"),
        "speedup": speedup["median"],
        "speedup_iqr": speedup["iqr"],
    }


#: The frames the frame-incremental leg's SimBA support covers (of 6).
INCREMENTAL_FRAMES = (2, 4)


def bench_frame_incremental(seed: int = 0) -> dict:
    """A seeded SimBA loop on a ResNet-18+LSTM victim, with the default
    embedding cache vs cacheless.

    Each ±ε candidate changes the support frames of the current point,
    so the cache re-encodes those alone and resumes the LSTM at the
    first of them.  Both configurations embed bit-identical features
    (oracle pair ``embed.frame_incremental_vs_full``); every round
    starts from an empty cache, as every attack on a fresh engine does.
    The victim has the end-to-end benchmark's width and frame size: at
    the attack fixture's 12×12 and width 2, per-op dispatch outweighs
    the rows the encoder skips, and the two configurations tie.
    """
    dataset = load_dataset(
        "ucf101", num_classes=4, train_videos=16, test_videos=4,
        height=16, width=16, num_frames=6, seed=seed,
    )
    extractor = create_feature_extractor("resnet18", feature_dim=16,
                                         width=4, rng=seed)
    extractor.eval()
    extractor.requires_grad_(False)
    original, target = dataset.test[0], dataset.test[1]
    support = np.zeros(original.pixels.shape, dtype=bool)
    support[list(INCREMENTAL_FRAMES)] = True

    def config(cache_size: int):
        engine = RetrievalEngine(extractor, num_nodes=3,
                                 cache_size=cache_size)
        engine.index_videos(dataset.train)
        service = RetrievalService.build(engine, m=8)

        def setup():
            engine.clear_embedding_cache()
            objective = RetrievalObjective(service, original, target)

            def body():
                simba_search(original, objective, support, tau=0.1,
                             iterations=ITERATIONS,
                             rng=np.random.default_rng(0))
            return body
        return setup

    timing = interleave({"cacheless": config(0),
                         "incremental": config(DEFAULT_CAPACITY)}, ROUNDS)
    speedup = timing.ratio("cacheless", "incremental")
    return {
        "iterations": ITERATIONS,
        "rounds": ROUNDS,
        "support_frames": list(INCREMENTAL_FRAMES),
        "cacheless_s": timing.median("cacheless"),
        "incremental_s": timing.median("incremental"),
        "speedup": speedup["median"],
        "speedup_iqr": speedup["iqr"],
    }


def bench_batched_search() -> dict:
    """Scalar vs batched scans of one 2000-row index.

    The ratio sits near 1 and moves by several percent with where the
    arrays land in memory, so every run scans a freshly built index.
    """
    rng = np.random.default_rng(1)
    features = rng.normal(size=(2000, 16))
    queries = rng.normal(size=(64, 16))

    def fresh_index():
        index = FeatureIndex()
        index.add_batch([f"v{i}" for i in range(len(features))],
                        [i % 10 for i in range(len(features))],
                        features.copy())
        return index, queries.copy()

    def scalar():
        index, rows = fresh_index()
        return lambda: [index.search(query, k=8) for query in rows]

    def batched():
        index, rows = fresh_index()
        return lambda: index.search_batch(rows, k=8)

    timing = interleave({"scalar": scalar, "batched": batched}, TRIALS)
    return {
        "queries": len(queries),
        "gallery_rows": len(features),
        "scalar_us": timing.median("scalar") * 1e6,
        "batched_us": timing.median("batched") * 1e6,
        "speedup": timing.ratio("scalar", "batched")["median"],
    }


def bench_embed_cache(extractor, dataset) -> dict:
    engine = RetrievalEngine(extractor, num_nodes=2, cache_size=64)
    video = dataset.test[0]

    def miss():
        engine.clear_embedding_cache()
        return lambda: engine.embed_queries([video])

    def hit():
        engine.embed_queries([video])  # prime
        return lambda: engine.embed_queries([video])

    timing = interleave({"miss": miss, "hit": hit}, TRIALS)
    return {
        "miss_us": timing.median("miss") * 1e6,
        "hit_us": timing.median("hit") * 1e6,
        "speedup": timing.ratio("miss", "hit")["median"],
    }


def assert_gemm_selected() -> None:
    """Every model-shape conv case must land on the GEMM op."""
    for name, conv, x_shape, w_shape, stride, padding in CONV_CASES:
        x = Tensor(np.zeros(x_shape), requires_grad=True)
        out = conv(x, Tensor(np.zeros(w_shape)), stride=stride,
                   padding=padding)
        if out.op != f"{conv.__name__}.gemm":
            raise AssertionError(f"{name} produced op {out.op!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the repro.perf fast paths.")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: same run, never records")
    args = parser.parse_args(argv)

    assert_gemm_selected()
    print("[bench_perf_hotpath] GEMM selected for all model shapes")

    conv_rows = bench_conv()
    extractor, dataset = build_attack_fixture()
    result = {
        "bench": "perf_hotpath",
        "timestamp": time.time(),
        "smoke": args.smoke,
        "conv": conv_rows,
        "conv_min_speedup": min(row["speedup"] for row in conv_rows),
        "attack": bench_attack_loop(extractor, dataset),
        "frame_incremental": bench_frame_incremental(),
        "batched_search": bench_batched_search(),
        "embed_cache": bench_embed_cache(extractor, dataset),
    }
    failures = regressions(result, recorded("perf"), REGRESSION_CHECKS)
    return finish("perf", result, failures, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
