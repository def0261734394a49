"""Benchmark the compressed index tiers against exact search.

For each gallery scale the bench builds a clustered (embedding-shaped)
feature matrix, indexes it three ways — exact ``FeatureIndex``, binary
Hamming codes (``BinaryHashIndex``), and IVF-PQ (``IVFPQIndex``), both
compressed tiers memory-mapped — and records, per tier:

* build seconds, and batched query latency (64 queries) as the median
  of interleaved rounds through ``common.interleave``;
* recall@10 against the exact index (the rerank stage makes scores
  exact, so recall measures only candidate coverage);
* the memory split: resident payload vs memmapped bytes vs the float
  footprint the tier replaces.

Usage::

    PYTHONPATH=src python benchmarks/bench_ann.py            # full
    PYTHONPATH=src python benchmarks/bench_ann.py --million  # + 1e6 rows
    PYTHONPATH=src python benchmarks/bench_ann.py --smoke    # CI gate

The full run records ``BENCH_ann.json`` at the repo root (scales 1e4
and 1e5 by default).  ``--smoke`` is the CI gate: a small-scale run
that asserts recall@10 ≥ 0.9 for both compressed tiers and that the
memmapped resident footprint stays under 25% of the float features; it
never overwrites the recorded baseline.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

# Pin BLAS to one thread before numpy loads (matches the repo's test
# convention and the 1-core CI machines the baselines are recorded on).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from common import finish, interleave  # noqa: E402
from repro.hashindex import (  # noqa: E402
    BinaryHashIndex,
    IVFPQIndex,
    MemmapStore,
)
from repro.retrieval import FeatureIndex  # noqa: E402

#: Queries per batch — the serving-tier front end's max batch.
NUM_QUERIES = 64
DIM = 32
K = 10

#: Interleaved search rounds per scale.
ROUNDS = 6

#: Floors every run must satisfy.
RECALL_FLOOR = 0.9
RESIDENT_FRACTION_CEILING = 0.25


def make_gallery(rows: int, dim: int = DIM, seed: int = 0):
    """A clustered gallery + near-gallery queries (embedding-shaped
    data; isotropic Gaussian rows are the ANN worst case and model
    nothing real)."""
    rng = np.random.default_rng(seed)
    clusters = max(32, rows // 200)
    centers = rng.normal(size=(clusters, dim))
    assignment = rng.integers(0, clusters, size=rows)
    features = centers[assignment] + 0.25 * rng.normal(size=(rows, dim))
    ids = [f"v{i}" for i in range(rows)]
    anchors = rng.choice(rows, size=NUM_QUERIES, replace=False)
    queries = features[anchors] + 0.05 * rng.normal(size=(NUM_QUERIES, dim))
    return ids, assignment.tolist(), features, queries


def _recall(exact_lists, approx_lists) -> float:
    total = 0.0
    for exact, approx in zip(exact_lists, approx_lists):
        truth = {entry.video_id for entry in exact}
        got = {entry.video_id for entry in approx}
        total += len(truth & got) / max(len(truth), 1)
    return total / max(len(exact_lists), 1)


def tier_factories(rows: int, store_dir: str):
    """Scale-matched compressed-tier configurations."""
    num_cells = min(1024, max(16, rows // 400))
    rerank = 256 if rows > 2000 else 64
    return {
        "hamming": lambda: BinaryHashIndex(
            nbits=128, coder="itq", rerank=rerank, rng=1,
            store=MemmapStore(Path(store_dir) / "hamming")),
        "ivfpq": lambda: IVFPQIndex(
            num_cells=num_cells, nprobe=max(4, num_cells // 16),
            num_subvectors=8, rerank=rerank, rng=1,
            store=MemmapStore(Path(store_dir) / "ivfpq")),
    }


def bench_scale(rows: int, store_dir: str) -> dict:
    ids, labels, features, queries = make_gallery(rows)
    exact = FeatureIndex()
    exact.add_batch(ids, labels, features)
    indexes, build_s = {"exact": exact}, {}
    for name, factory in tier_factories(rows, store_dir).items():
        index = factory()
        start = time.perf_counter()
        index.add_batch(ids, labels, features)
        index.build()
        build_s[name] = time.perf_counter() - start
        indexes[name] = index
    timing = interleave(
        {name: lambda index=index: lambda: index.search_batch(queries, k=K)
         for name, index in indexes.items()}, ROUNDS)
    exact_lists = exact.search_batch(queries, k=K)
    float_bytes = int(features.nbytes)

    result = {
        "rows": rows,
        "dim": DIM,
        "queries": NUM_QUERIES,
        "k": K,
        "float_feature_bytes": float_bytes,
        "exact": {"batch_s": timing.median("exact"),
                  "per_query_ms": timing.median("exact") / NUM_QUERIES
                  * 1e3},
        "tiers": {},
    }
    for name in build_s:
        index = indexes[name]
        stats = index.memory_stats()
        result["tiers"][name] = {
            "build_s": build_s[name],
            "batch_s": timing.median(name),
            "per_query_ms": timing.median(name) / NUM_QUERIES * 1e3,
            "speedup_vs_exact": timing.ratio("exact", name)["median"],
            "recall_at_10": _recall(exact_lists,
                                    index.search_batch(queries, k=K)),
            "rerank_depth": index.effective_rerank(K),
            "memory": stats,
            "resident_fraction": stats["resident_bytes"] / float_bytes,
        }
        index.store.close()
    return result


def check_floors(result: dict) -> list[str]:
    """Deterministic floors every run must satisfy."""
    failures = []
    for name, tier in result["tiers"].items():
        if tier["recall_at_10"] < RECALL_FLOOR:
            failures.append(
                f"{result['rows']} rows / {name}: recall@10 "
                f"{tier['recall_at_10']:.3f} < {RECALL_FLOOR}")
        if tier["resident_fraction"] >= RESIDENT_FRACTION_CEILING:
            failures.append(
                f"{result['rows']} rows / {name}: resident bytes are "
                f"{tier['resident_fraction']:.1%} of the float footprint "
                f"(ceiling {RESIDENT_FRACTION_CEILING:.0%})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark compressed index tiers vs exact search.")
    parser.add_argument("--million", action="store_true",
                        help="also bench at 1e6 rows (slow build)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: small scale, recall + memory floors")
    args = parser.parse_args(argv)

    if args.smoke:
        scales = [4000]
    else:
        scales = [10_000, 100_000] + ([1_000_000] if args.million else [])

    results = []
    failures = []
    with tempfile.TemporaryDirectory(prefix="bench-ann-") as store_dir:
        for rows in scales:
            print(f"[bench_ann] {rows} rows ...", flush=True)
            result = bench_scale(rows, store_dir)
            results.append(result)
            failures.extend(check_floors(result))
            for name, tier in result["tiers"].items():
                print(f"[bench_ann]   {name}: {tier['speedup_vs_exact']:.1f}x "
                      f"vs exact, recall@10 {tier['recall_at_10']:.3f}, "
                      f"resident {tier['resident_fraction']:.1%} of floats",
                      flush=True)

    payload = {
        "bench": "ann",
        "timestamp": time.time(),
        "smoke": args.smoke,
        "scales": results,
    }
    return finish("ann", payload, failures, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
