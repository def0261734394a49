"""Built-in differential-oracle pair declarations.

Importing this module populates the registry in :mod:`repro.qa.oracle`
with every reference/fast equivalence contract the library claims:

* ``conv2d`` / ``conv3d``: the :mod:`repro.qa.reference` strided-einsum
  convs vs the production im2col GEMM (forward and both gradients);
* ``conv.grid_vs_dense``: the GEMM conv's grid geometry (eager and
  replayed) vs its dense geometry, byte for byte;
* ``max_pool3d.window_vs_slab``: the window-mask max-pool backward vs
  the production slab-wise one, byte for byte (ties, overlaps);
* ``search`` vs ``search_batch`` on :class:`FeatureIndex` and
  :class:`ShardedGallery`;
* cached vs uncached query embeddings (``cache_size``), and
  frame-incremental embeddings (cached frame encodings, resumed
  recurrent states) vs the full forward;
* replicated (r = 2, 3) vs single-shard retrieval;
* pinned snapshot reads under churn vs a numpy ranking of the rows
  live at each pinned version;
* DUO's query stage on :class:`~repro.qa.reference.SequentialObjective`
  vs the production objective (speculated ±ε pairs);
* scalar vs vectorized NDCG list similarity;
* micro-batched serving front end vs sequential replay against the bare
  service (``repro.serving``).

Each pair builds its own inputs deterministically from scalar case
parameters, so the shrinker can minimize counterexamples by shrinking
integers without ever producing inconsistent array shapes.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.attacks.base import clip_video_range
from repro.attacks.config import AttackConfig
from repro.attacks.duo import SparseTransfer, TransferPriors
from repro.attacks.heu import saliency_support
from repro.attacks.objective import RetrievalObjective
from repro.attacks.registry import build_attack
from repro.attacks.search import nes_search, simba_search
from repro.attacks.timi import timi_transfer
from repro.attacks.vanilla import random_support
from repro.defenses.stateful import StatefulQueryDetector
from repro.metrics.similarity import ndcg_similarity, ndcg_similarity_many
from repro.nn import Conv2d, Conv3d, Tensor, jit, no_grad
from repro.nn import functional as F
from repro.qa.comparators import (
    array_digest,
    assert_close,
    assert_retrieval_lists_equal,
)
from repro.qa.generators import (
    Strategy,
    draw_clustered_gallery,
    draw_gallery,
    shrink_int,
)
from repro.qa import reference
from repro.qa.oracle import OraclePair, register
from repro.qa.world import build_world, tiny_extractor
from repro.resilience.config import ResilienceConfig
from repro.resilience.faults import FaultPlan
from repro.retrieval.index import FeatureIndex
from repro.retrieval.lists import RetrievalEntry
from repro.retrieval.nodes import ShardedGallery
from repro.serving import (
    ServingConfig,
    ServingFrontend,
    TenantPolicy,
    TenantSpec,
    generate_timeline,
)

# ---------------------------------------------------------------------- #
# conv einsum vs GEMM
# ---------------------------------------------------------------------- #


def _conv_case(seed: int, batch: int, in_ch: int, out_ch: int,
               spatial: tuple[int, ...], kernel: tuple[int, ...],
               stride: tuple[int, ...], padding: tuple[int, ...]):
    """Deterministic (x, w) for a conv problem, sanitized to be valid."""
    spatial = tuple(max(size, k) for size, k in zip(spatial, kernel))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, in_ch, *spatial))
    w = rng.normal(size=(out_ch, in_ch, *kernel))
    return x, w, stride, padding


def _conv_run(conv, seed, batch, in_ch, out_ch, spatial, kernel, stride,
              padding):
    """Forward + backward of one conv through ``conv``."""
    x, w, stride, padding = _conv_case(seed, batch, in_ch, out_ch, spatial,
                                       kernel, stride, padding)
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    out = conv(xt, wt, stride=stride, padding=padding)
    out.sum().backward()
    return {"out": out.data, "grad_x": xt.grad, "grad_w": wt.grad}


def _conv2d_strategy(rng: np.random.Generator) -> dict:
    kernel = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    return {
        "seed": int(rng.integers(0, 2**31)),
        "batch": int(rng.integers(1, 4)),
        "in_ch": int(rng.integers(1, 4)),
        "out_ch": int(rng.integers(1, 4)),
        "spatial": (int(rng.integers(3, 10)), int(rng.integers(3, 10))),
        "kernel": kernel,
        "stride": (int(rng.integers(1, 3)), int(rng.integers(1, 3))),
        "padding": (int(rng.integers(0, 3)), int(rng.integers(0, 3))),
    }


def _conv3d_strategy(rng: np.random.Generator) -> dict:
    return {
        "seed": int(rng.integers(0, 2**31)),
        "batch": int(rng.integers(1, 3)),
        "in_ch": int(rng.integers(1, 3)),
        "out_ch": int(rng.integers(1, 3)),
        "spatial": (int(rng.integers(2, 6)), int(rng.integers(3, 8)),
                    int(rng.integers(3, 8))),
        "kernel": (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                   int(rng.integers(1, 4))),
        "stride": (int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                   int(rng.integers(1, 3))),
        "padding": (int(rng.integers(0, 2)), int(rng.integers(0, 2)),
                    int(rng.integers(0, 2))),
    }


_CONV_SHRINKERS = {
    "batch": shrink_int(1),
    "in_ch": shrink_int(1),
    "out_ch": shrink_int(1),
}


def _conv_compare(reference, fast):
    assert_close(reference, fast, rtol=1e-8, atol=1e-10)


register(OraclePair(
    name="conv2d.einsum_vs_gemm",
    reference=lambda **case: _conv_run(reference.conv2d, **case),
    fast=lambda **case: _conv_run(F.conv2d, **case),
    strategy=Strategy("conv2d", _conv2d_strategy, _CONV_SHRINKERS),
    compare=_conv_compare,
    cases=6,
    description="conv2d forward/backward: strided einsum vs im2col GEMM",
))

register(OraclePair(
    name="conv3d.einsum_vs_gemm",
    reference=lambda **case: _conv_run(reference.conv3d, **case),
    fast=lambda **case: _conv_run(F.conv3d, **case),
    strategy=Strategy("conv3d", _conv3d_strategy, _CONV_SHRINKERS),
    compare=_conv_compare,
    cases=4,
    description="conv3d forward/backward: strided einsum vs im2col GEMM",
))


# ---------------------------------------------------------------------- #
# conv grid vs dense geometry, max-pool window vs slab backward
# ---------------------------------------------------------------------- #
def _byte_equal(reference, fast):
    assert reference.keys() == fast.keys()
    for key, expected in reference.items():
        got = fast[key]
        assert got.shape == expected.shape and \
            got.tobytes() == expected.tobytes(), \
            f"{key}: max |diff| {np.abs(got - expected).max():.3g}"


def _upstream(shape, seed) -> np.ndarray:
    """A deterministic upstream gradient with exact zeros (ReLU-like)."""
    grad = np.random.default_rng(seed).normal(size=shape)
    grad[grad < 0] = 0.0
    return grad


def _grid_conv_run(weight_grad, seed, batch, in_ch, out_ch, spatial, kernel,
                   stride, padding):
    """Forward and input gradient of one stride-any conv, eager + replay.

    ``weight_grad`` makes the weight record a gradient, which pins the
    dense geometry; without it a stride-1 conv takes the grid geometry,
    and a traced one-conv module replays it too.  The dense side reports
    its eager results under the replay keys, so both sides compare
    eager and replayed grid outputs against dense ones.
    """
    x, w, stride, padding = _conv_case(seed, batch, in_ch, out_ch, spatial,
                                       kernel, stride, padding)
    conv = F.conv3d if len(kernel) == 3 else F.conv2d
    xt = Tensor(x, requires_grad=True)
    out = conv(xt, Tensor(w, requires_grad=weight_grad), stride=stride,
               padding=padding)
    grad = _upstream(out.shape, seed + 1)
    out.backward(grad)
    result = {"out": out.data, "grad_x": xt.grad}
    if weight_grad:
        result["replay_out"], result["replay_grad_x"] = out.data, xt.grad
        return result
    module = (Conv3d if len(kernel) == 3 else Conv2d)(
        in_ch, out_ch, kernel, stride=stride, padding=padding, bias=False)
    module.weight.data = w
    module.requires_grad_(False)
    compiled = jit.compile(module)
    with no_grad():  # trace, then replay on the real input
        compiled(Tensor(x * 0.5))
        result["replay_out"] = compiled(Tensor(x)).data
    compiled(Tensor(x * 0.5, requires_grad=True)).backward(grad)
    replayed = Tensor(x, requires_grad=True)
    compiled(replayed).backward(grad)
    result["replay_grad_x"] = replayed.grad
    return result


def _grid_conv_strategy(rng: np.random.Generator) -> dict:
    rank = int(rng.integers(2, 4))
    kernel = [(1,) * rank, (3,) * rank, (1, 3, 3)][
        int(rng.integers(0, 3 if rank == 3 else 2))]
    step = int(rng.integers(1, 3))
    return {
        "seed": int(rng.integers(0, 2**31)),
        "batch": int(rng.choice([1, 3])),
        "in_ch": int(rng.integers(1, 4)),
        "out_ch": int(rng.integers(1, 5)),
        "spatial": tuple(int(rng.integers(3, 9)) for _ in range(rank)),
        "kernel": kernel,
        "stride": (step,) * rank,
        "padding": (int(rng.integers(0, 3)),) * rank,
    }


register(OraclePair(
    name="conv.grid_vs_dense",
    reference=lambda **case: _grid_conv_run(True, **case),
    fast=lambda **case: _grid_conv_run(False, **case),
    strategy=Strategy("conv_geometry", _grid_conv_strategy, _CONV_SHRINKERS),
    compare=_byte_equal,
    cases=8,
    description="GEMM conv forward (eager, replay) and grad_x: grid "
                "geometry vs dense, byte-identical",
))


def _max_pool_run(pool, seed, batch, channels, spatial, kernel, stride):
    """Forward + backward of one max pool over tie-heavy ReLU'd input."""
    rng = np.random.default_rng(seed)
    spatial = tuple(max(size, k) for size, k in zip(spatial, kernel))
    # Half-integer grid after ReLU: zero windows and equal maxima tie.
    x = np.maximum(np.round(rng.normal(size=(batch, channels, *spatial))
                            * 2) / 2, 0.0)
    xt = Tensor(x, requires_grad=True)
    out = pool(xt, kernel, stride)
    out.backward(np.random.default_rng(seed + 1).normal(size=out.shape))
    return {"out": out.data, "grad_x": xt.grad}


def _max_pool_strategy(rng: np.random.Generator) -> dict:
    kernel = tuple(int(rng.integers(1, 4)) for _ in range(3))
    return {
        "seed": int(rng.integers(0, 2**31)),
        "batch": int(rng.integers(1, 3)),
        "channels": int(rng.integers(1, 4)),
        "spatial": tuple(int(rng.integers(2, 8)) for _ in range(3)),
        "kernel": kernel,
        # stride ≤ kernel: windows overlap wherever stride < kernel.
        "stride": tuple(int(rng.integers(1, k + 1)) for k in kernel),
    }


register(OraclePair(
    name="max_pool3d.window_vs_slab",
    reference=lambda **case: _max_pool_run(reference.max_pool3d, **case),
    fast=lambda **case: _max_pool_run(F.max_pool3d, **case),
    strategy=Strategy("max_pool3d", _max_pool_strategy,
                      {"batch": shrink_int(1), "channels": shrink_int(1)}),
    compare=_byte_equal,
    cases=8,
    description="max_pool3d forward/backward: window-view masks vs "
                "slab-wise masks and tie counts, byte-identical",
))


# ---------------------------------------------------------------------- #
# search vs search_batch (FeatureIndex / ShardedGallery)
# ---------------------------------------------------------------------- #
def _index_strategy(rng: np.random.Generator) -> dict:
    return {
        "seed": int(rng.integers(0, 2**31)),
        "rows": int(rng.integers(1, 40)),
        "dim": int(rng.integers(1, 12)),
        "batch": int(rng.integers(1, 8)),
        "k": int(rng.integers(1, 10)),
    }


_INDEX_SHRINKERS = {
    "rows": shrink_int(1),
    "dim": shrink_int(1),
    "batch": shrink_int(1),
    "k": shrink_int(1),
}


def _queries_for(seed: int, batch: int, dim: int) -> np.ndarray:
    return np.random.default_rng(seed + 1).normal(size=(batch, dim))


def _feature_index(seed, rows, dim):
    index = FeatureIndex()
    index.add_batch(*draw_gallery(np.random.default_rng(seed), rows, dim))
    return index


def _search_sequential(build):
    def run(seed, rows, dim, batch, k):
        index = build(seed, rows, dim)
        queries = _queries_for(seed, batch, dim)
        return [index.search(query, k) for query in queries]
    return run


def _search_batched(build):
    def run(seed, rows, dim, batch, k):
        index = build(seed, rows, dim)
        queries = _queries_for(seed, batch, dim)
        return index.search_batch(queries, k)
    return run


register(OraclePair(
    name="feature_index.search_vs_batch",
    reference=_search_sequential(_feature_index),
    fast=_search_batched(_feature_index),
    strategy=Strategy("feature_index", _index_strategy, _INDEX_SHRINKERS),
    compare=assert_retrieval_lists_equal,
    cases=8,
    description="FeatureIndex.search_batch vs per-query search (bit-exact)",
))


def _gallery_strategy(rng: np.random.Generator) -> dict:
    case = _index_strategy(rng)
    case["num_nodes"] = int(rng.integers(1, 5))
    return case


def _sharded_gallery(seed, rows, dim, num_nodes, replication=1):
    gallery = ShardedGallery(
        num_nodes=num_nodes,
        resilience=None if replication == 1 else
        ResilienceConfig(replication=replication))
    gallery.add_batch(*draw_gallery(np.random.default_rng(seed), rows, dim))
    return gallery


register(OraclePair(
    name="sharded_gallery.search_vs_batch",
    reference=lambda seed, rows, dim, batch, k, num_nodes: [
        _sharded_gallery(seed, rows, dim, num_nodes).search(query, k)
        for query in _queries_for(seed, batch, dim)
    ],
    fast=lambda seed, rows, dim, batch, k, num_nodes:
        _sharded_gallery(seed, rows, dim, num_nodes).search_batch(
            _queries_for(seed, batch, dim), k),
    strategy=Strategy("sharded_gallery", _gallery_strategy,
                      dict(_INDEX_SHRINKERS, num_nodes=shrink_int(1))),
    compare=assert_retrieval_lists_equal,
    cases=6,
    description="ShardedGallery scatter/gather batch vs sequential search",
))


# ---------------------------------------------------------------------- #
# compressed index tier (+ exact rerank) vs exact FeatureIndex
# ---------------------------------------------------------------------- #
#: Mean recall@k the compressed tiers must reach against the exact
#: index on clustered (embedding-shaped) galleries.
COMPRESSED_RECALL_FLOOR = 0.95


def _compressed_case(seed: int, rows: int, dim: int, batch: int, k: int):
    """Clustered gallery + near-gallery queries (shared by both sides)."""
    rng = np.random.default_rng(seed)
    ids, labels, features = draw_clustered_gallery(rng, rows, dim)
    anchors = rng.choice(rows, size=min(batch, rows), replace=False)
    queries = features[anchors] + 0.1 * rng.normal(
        size=(len(anchors), dim))
    if len(anchors) < batch:  # more queries than rows: recycle anchors
        extra = rng.integers(0, rows, size=batch - len(anchors))
        queries = np.concatenate([
            queries,
            features[extra] + 0.1 * rng.normal(size=(len(extra), dim)),
        ])
    return ids, labels, features, queries


def _exact_id_lists(tier, seed, rows, dim, batch, k):
    ids, labels, features, queries = _compressed_case(seed, rows, dim,
                                                      batch, k)
    index = FeatureIndex()
    index.add_batch(ids, labels, features)
    return [[entry.video_id for entry in result]
            for result in index.search_batch(queries, k)]


def _compressed_id_lists(tier, seed, rows, dim, batch, k):
    from repro.hashindex import BinaryHashIndex, IVFPQIndex

    ids, labels, features, queries = _compressed_case(seed, rows, dim,
                                                      batch, k)
    rerank = max(32, 4 * k)
    if tier == "hamming":
        index = BinaryHashIndex(nbits=128, coder="itq", rerank=rerank,
                                rng=seed + 1)
    else:
        index = IVFPQIndex(num_cells=8, nprobe=4,
                           num_subvectors=min(8, dim), rerank=rerank,
                           rng=seed + 1)
    index.add_batch(ids, labels, features)
    return [[entry.video_id for entry in result]
            for result in index.search_batch(queries, k)]


def _recall_floor_compare(reference, fast):
    """Mean per-query overlap with the exact top-k must clear the floor."""
    recalls = [
        len(set(exact) & set(approx)) / max(len(exact), 1)
        for exact, approx in zip(reference, fast)
    ]
    mean_recall = sum(recalls) / max(len(recalls), 1)
    assert mean_recall >= COMPRESSED_RECALL_FLOOR, (
        f"compressed recall@k {mean_recall:.3f} below floor "
        f"{COMPRESSED_RECALL_FLOOR} (per-query: "
        f"{[round(r, 2) for r in recalls]})")


def _compressed_strategy(rng: np.random.Generator) -> dict:
    return {
        "tier": str(rng.choice(("hamming", "ivfpq"))),
        "seed": int(rng.integers(0, 2**31)),
        "rows": int(rng.integers(48, 200)),
        "dim": int(rng.integers(8, 28)),
        "batch": int(rng.integers(1, 8)),
        "k": int(rng.integers(1, 11)),
    }


register(OraclePair(
    name="hashindex.compressed_vs_exact",
    reference=_exact_id_lists,
    fast=_compressed_id_lists,
    strategy=Strategy("hashindex", _compressed_strategy,
                      dict(_INDEX_SHRINKERS)),
    compare=_recall_floor_compare,
    cases=6,
    description="compressed tiers (+ exact rerank) hold recall@k ≥ "
                f"{COMPRESSED_RECALL_FLOOR} vs the exact FeatureIndex",
))


# ---------------------------------------------------------------------- #
# replicated vs single-shard retrieval
# ---------------------------------------------------------------------- #
def _replication_strategy(rng: np.random.Generator) -> dict:
    case = _index_strategy(rng)
    case["num_nodes"] = int(rng.integers(3, 6))
    case["replication"] = int(rng.choice((2, 3)))
    return case


register(OraclePair(
    name="gallery.replicated_vs_single",
    reference=lambda seed, rows, dim, batch, k, num_nodes, replication: [
        _sharded_gallery(seed, rows, dim, num_nodes).search(query, k)
        for query in _queries_for(seed, batch, dim)
    ],
    fast=lambda seed, rows, dim, batch, k, num_nodes, replication: [
        _sharded_gallery(seed, rows, dim, num_nodes,
                         replication=replication).search(query, k)
        for query in _queries_for(seed, batch, dim)
    ],
    strategy=Strategy("replication", _replication_strategy,
                      dict(_INDEX_SHRINKERS, replication=shrink_int(2))),
    compare=assert_retrieval_lists_equal,
    cases=5,
    description="replication r=2,3 keeps retrieval exact vs r=1",
))


# ---------------------------------------------------------------------- #
# snapshot reads vs a brute-force ranking of the rows live at the version
# ---------------------------------------------------------------------- #
def _churn_script(seed: int, rows: int, dim: int, ops: int, batch: int,
                  num_nodes: int, k: int):
    """Initial rows, a mutation script with pin points, and queries.

    The script opens by deleting ``k + 1`` rows placed on node 0, so
    that node holds more tombstones than ``k``, then mixes adds,
    deletes and re-embeds, pinning a snapshot after a random third of
    the steps and always at the end.
    """
    rng = np.random.default_rng(seed)
    ids, labels, features = draw_gallery(rng, rows, dim)
    live = list(ids)
    script: list[tuple] = []
    for video_id in ids[::num_nodes][:k + 1]:
        script.append(("delete", video_id))
        live.remove(video_id)
    script.append(("pin",))
    for step in range(ops):
        kind = str(rng.choice(("add", "delete", "delete", "reembed"))) \
            if live else "add"
        if kind == "add":
            video_id = f"new{step}"
            live.append(video_id)
            script.append(("add", video_id, int(rng.integers(0, 3)),
                           rng.normal(size=dim)))
        else:
            video_id = live[int(rng.integers(len(live)))]
            if kind == "delete":
                live.remove(video_id)
                script.append(("delete", video_id))
            else:
                script.append(("reembed", video_id, int(rng.integers(0, 3)),
                               rng.normal(size=dim)))
        if rng.random() < 1 / 3:
            script.append(("pin",))
    script.append(("pin",))
    queries = rng.normal(size=(batch, dim))
    return (ids, labels, features), script, queries


def _numpy_ranking(state: dict, queries: np.ndarray,
                   k: int) -> list[list[RetrievalEntry]]:
    """Top-``k`` of every query over ``state`` (id → (label, feature))."""
    if not state:
        return [[] for _ in queries]
    video_ids = list(state)
    matrix = np.stack([state[video_id][1] for video_id in video_ids])
    results = []
    for query in queries:
        diffs = matrix - query[None, :]
        scores = -np.sqrt((diffs * diffs).sum(axis=1))
        results.append([
            RetrievalEntry(video_ids[row], state[video_ids[row]][0],
                           float(scores[row]))
            for row in np.argsort(-scores, kind="stable")[:k]
        ])
    return results


def _snapshot_bruteforce(seed, rows, dim, ops, batch, k, num_nodes,
                         replication):
    (ids, labels, features), script, queries = _churn_script(
        seed, rows, dim, ops, batch, num_nodes, k)
    state = {video_id: (label, feature)
             for video_id, label, feature in zip(ids, labels, features)}
    pinned = []
    for step in script:
        if step[0] == "pin":
            pinned.append(_numpy_ranking(state, queries, k))
        elif step[0] == "delete":
            del state[step[1]]
        else:
            state[step[1]] = (step[2], step[3])
    return pinned


def _snapshot_gallery(seed, rows, dim, ops, batch, k, num_nodes,
                      replication):
    (ids, labels, features), script, queries = _churn_script(
        seed, rows, dim, ops, batch, num_nodes, k)
    gallery = ShardedGallery(
        num_nodes=num_nodes,
        resilience=None if replication == 1 else
        ResilienceConfig(replication=replication))
    gallery.add_batch(ids, labels, features)
    snapshots = []
    for step in script:
        if step[0] == "pin":
            snapshots.append(gallery.snapshot())
        elif step[0] == "add":
            gallery.add(*step[1:])
        elif step[0] == "delete":
            gallery.delete(step[1])
        else:
            gallery.reembed(*step[1:])
    # Every snapshot is read after all mutations, alternately through
    # the batched and the scalar search.
    return [
        gallery.search_batch(queries, k, snapshot=snap) if number % 2 == 0
        else [gallery.search(query, k, snapshot=snap) for query in queries]
        for number, snap in enumerate(snapshots)
    ]


register(OraclePair(
    name="gallery.snapshot_vs_bruteforce",
    reference=_snapshot_bruteforce,
    fast=_snapshot_gallery,
    strategy=Strategy(
        "snapshot",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "rows": int(rng.integers(4, 40)),
                     "dim": int(rng.integers(1, 8)),
                     "ops": int(rng.integers(0, 30)),
                     "batch": int(rng.integers(1, 5)),
                     "k": int(rng.integers(1, 5)),
                     "num_nodes": int(rng.integers(1, 5)),
                     "replication": int(rng.choice((1, 2)))},
        {"rows": shrink_int(1), "dim": shrink_int(1), "ops": shrink_int(0),
         "batch": shrink_int(1), "k": shrink_int(1),
         "num_nodes": shrink_int(1), "replication": shrink_int(1)},
    ),
    compare=assert_retrieval_lists_equal,
    cases=6,
    description="pinned snapshot reads after add/delete/re-embed churn "
                "equal a numpy ranking over the rows live at that version",
))


# ---------------------------------------------------------------------- #
# cached vs uncached query embeddings
# ---------------------------------------------------------------------- #
def _embed_run(cache_size: int, seed: int, num_videos: int):
    world = build_world(seed, num_videos=5, cache_size=cache_size)
    from repro.qa.world import tiny_videos

    queries = tiny_videos(seed + 17, num_videos)
    first = world.engine.embed_queries(queries)
    second = world.engine.embed_queries(queries)  # cache hits when enabled
    return {"first": first, "second": second}


def _embed_compare(reference, fast):
    np.testing.assert_array_equal(reference["first"], fast["first"])
    np.testing.assert_array_equal(reference["second"], fast["second"])
    np.testing.assert_array_equal(fast["first"], fast["second"])


register(OraclePair(
    name="engine.cached_vs_uncached",
    reference=lambda seed, num_videos: _embed_run(0, seed, num_videos),
    fast=lambda seed, num_videos: _embed_run(32, seed, num_videos),
    strategy=Strategy(
        "embed_cache",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "num_videos": int(rng.integers(1, 5))},
        {"num_videos": shrink_int(1)},
    ),
    compare=_embed_compare,
    cases=2,
    description="EmbeddingCache hits are bit-identical to fresh forwards",
))


# ---------------------------------------------------------------------- #
# frame-incremental vs full query embeddings
# ---------------------------------------------------------------------- #
#: Backbones the pair draws: two frame-separable ones and a decliner.
_INCREMENTAL_BACKBONES = ("resnet18", "resnet34", "c3d")


def _incremental_clips(seed: int, batch: int, changed: int) -> list:
    """A base clip, a warm-up batch and a target batch of variants.

    Every variant redraws a random subset of the frames in the
    ``changed`` bitmask, so the clips share frame prefixes and suffixes
    with the base and with each other; a target clip may repeat a
    warm-up clip's frames or equal the base.
    """
    from repro.qa.world import FRAMES, tiny_videos
    from repro.video.types import Video

    rng = np.random.default_rng(seed)
    base = tiny_videos(seed, 1)[0]
    frames = [t for t in range(FRAMES) if changed >> t & 1]

    def variant():
        pixels = base.pixels.copy()
        for t in frames:
            if rng.random() < 0.7:
                pixels[t] = rng.random(pixels[t].shape)
        return Video(pixels, base.label)

    warm = [variant() for _ in range(batch)]
    target = [variant() for _ in range(batch)]
    if batch > 1:
        target[-1] = warm[0]
    return [[base], warm, target, target]


def _incremental_run(incremental: bool, seed: int, backbone: int,
                     batch: int, chunk: int, changed: int, capacity: int,
                     fuse: int) -> list:
    from repro.perf.cache import EmbeddingCache

    extractor = tiny_extractor(seed % 9973,
                               backbone=_INCREMENTAL_BACKBONES[backbone])
    cache = EmbeddingCache(capacity) if incremental else None
    return [extractor.embed_videos(clips, batch_size=chunk, fuse=bool(fuse),
                                   cache=cache)
            for clips in _incremental_clips(seed, batch, changed)]


def _incremental_strategy(rng: np.random.Generator) -> dict:
    batch = int(rng.integers(1, 9))
    return {"seed": int(rng.integers(0, 2**31)),
            "backbone": int(rng.integers(0, len(_INCREMENTAL_BACKBONES))),
            "batch": batch,
            "chunk": int(rng.integers(1, batch + 1)),
            "changed": int(rng.integers(1, 256)),
            "capacity": int(rng.integers(1, 25)),
            "fuse": int(rng.integers(0, 2))}


def _incremental_compare(reference, fast):
    assert len(reference) == len(fast)
    for call, (ref, got) in enumerate(zip(reference, fast)):
        np.testing.assert_array_equal(ref, got, err_msg=f"embed call {call}")


register(OraclePair(
    name="embed.frame_incremental_vs_full",
    reference=lambda **case: _incremental_run(False, **case),
    fast=lambda **case: _incremental_run(True, **case),
    strategy=Strategy(
        "frame_incremental",
        _incremental_strategy,
        {"batch": shrink_int(1), "chunk": shrink_int(1),
         "backbone": shrink_int(0), "capacity": shrink_int(1)},
    ),
    compare=_incremental_compare,
    cases=6,
    description="embedding through the frame cache (cached frame "
                "encodings, resumed recurrent states, declines) is "
                "bit-identical to the full forward",
))


# ---------------------------------------------------------------------- #
# sequential vs speculative DUO query stage
# ---------------------------------------------------------------------- #
def _qa_priors(shape: tuple[int, ...], seed: int, k: int = 48) -> TransferPriors:
    rng = np.random.default_rng(seed)
    per_frame = int(np.prod(shape[1:]))
    flat = np.zeros(int(np.prod(shape)), dtype=bool)
    flat[rng.choice(2 * per_frame, size=min(k, 2 * per_frame),
                    replace=False)] = True
    theta = np.zeros(shape)
    theta.reshape(-1)[flat] = rng.uniform(-0.1, 0.1, size=flat.sum())
    frame_mask = np.zeros(shape[0])
    frame_mask[:2] = 1.0
    return TransferPriors(pixel_mask=flat.reshape(shape).astype(float),
                          frame_mask=frame_mask, theta=theta)


def duo_query_attack(priors: TransferPriors, iterations: int, service,
                     rng, sequential: bool = False):
    """DUO's query stage over fixed priors (the ``duo-query`` composition);
    ``sequential`` runs it on the one-query-per-candidate reference."""
    config = AttackConfig(strategy="duo-query", tau=30.0,
                          iterations=iterations, sampler={"priors": priors})
    attack = build_attack(config, service=service, rng=rng)
    return reference.sequential_attack(attack) if sequential else attack


def _sparse_query_run(sequential: bool, seed: int, iters: int):
    world = build_world(seed, cache_size=0)
    priors = _qa_priors(world.original.pixels.shape, seed + 9)
    report = duo_query_attack(priors, iters, world.service, seed + 5,
                              sequential).run(world.original, world.target)
    return {
        "perturbation_digest": array_digest(report.adversarial.pixels),
        "trace": list(report.trace),
        "objective_queries": report.queries,
        "service_queries": world.service.query_count,
    }


def _exact_compare(reference, fast):
    assert reference == fast, (
        f"sequential/speculative state diverged:\n  seq: {reference}\n"
        f"  spec: {fast}")


register(OraclePair(
    name="sparse_query.sequential_vs_speculative",
    reference=lambda seed, iters: _sparse_query_run(True, seed, iters),
    fast=lambda seed, iters: _sparse_query_run(False, seed, iters),
    strategy=Strategy(
        "sparse_query",
        lambda rng: {"seed": int(rng.integers(0, 1000)),
                     "iters": int(rng.integers(2, 6))},
        {"iters": shrink_int(1)},
    ),
    compare=_exact_compare,
    cases=2,
    description="speculative ±ε DUO query steps match the sequential loop",
))


# ---------------------------------------------------------------------- #
# scalar vs vectorized NDCG similarity
# ---------------------------------------------------------------------- #
def _ndcg_lists(seed: int, num_lists: int, length: int, universe: int):
    from repro.qa.generators import draw_id_list

    rng = np.random.default_rng(seed)
    lists_a = [draw_id_list(rng, universe, length) for _ in range(num_lists)]
    list_b = draw_id_list(rng, universe, length)
    return lists_a, list_b


# ---------------------------------------------------------------------- #
# micro-batched serving front end vs sequential replay
# ---------------------------------------------------------------------- #
def _serving_digest(world, report, detector) -> dict:
    """What a serving oracle compares: statuses, lists, counts, ledgers;
    an attached detector must have observed exactly the issued queries."""
    assert detector is None or detector.observed_count("edge") == \
        world.service.queries_issued, "detector observed != issued"
    return {
        "statuses": [response.status for response in report.responses],
        "lists": [response.result for response in report.responses
                  if response.ok],
        "served_by_tenant": report.served_by_tenant,
        "ledger": (world.service.query_count,
                   world.service.queries_issued,
                   world.service.queries_refunded),
        "detector": None if detector is None else
        (detector.hit_count("edge"), detector.observed_count("edge")),
    }


def _serving_run(batched: bool, seed: int, tenants: int, per_tenant: int,
                 batch: int, limited: int):
    """One tenant timeline through the front end (or the bare service).

    The contract under test: with every request admitted into an
    uncontended queue (capacity exceeds the offered load, all
    interactive, no global budget), micro-batching is purely a
    performance transform — statuses, retrieval lists, per-tenant served
    counts, and the service ledger match the sequential replay exactly.
    Rate limiting stays in scope because admission decisions depend only
    on arrival times, never on batch state.
    """
    from repro.qa.world import tiny_videos

    world = build_world(seed % 997, num_videos=6)
    videos = tiny_videos(seed + 3, 3, label_base=5)
    specs = [TenantSpec(f"tenant-{i}", 150.0 + 50.0 * i, per_tenant)
             for i in range(tenants)]
    timeline = generate_timeline(seed + 11, specs, videos)
    config = ServingConfig(
        max_batch_size=batch, max_wait_s=0.003, queue_capacity=512,
        default_tenant=TenantPolicy(rate_per_s=120.0 if limited else None,
                                    burst=2))
    if batched:
        report = ServingFrontend(world.service, config).run(timeline)
    else:
        report = reference.replay_sequential(timeline, world.service, config)
    return _serving_digest(world, report, None)


def _serving_compare(reference, fast):
    assert reference["statuses"] == fast["statuses"], (
        f"statuses diverged:\n  seq: {reference['statuses']}\n"
        f"  batched: {fast['statuses']}")
    assert reference["served_by_tenant"] == fast["served_by_tenant"], (
        f"per-tenant counts diverged: {reference['served_by_tenant']} vs "
        f"{fast['served_by_tenant']}")
    assert reference["ledger"] == fast["ledger"], (
        f"service ledger diverged: {reference['ledger']} vs "
        f"{fast['ledger']}")
    assert reference["detector"] == fast["detector"], (
        f"detector (hits, observed) diverged: {reference['detector']} vs "
        f"{fast['detector']}")
    assert reference.get("faults") == fast.get("faults"), (
        f"fault timelines diverged: {reference.get('faults')} vs "
        f"{fast.get('faults')}")
    # Rankings must match exactly; scores only to float tolerance — the
    # embedding forward is batched (one model batch of B vs B batches of
    # one), and BLAS picks different kernels per batch shape, so the
    # last bit can differ (same contract as
    # ``test_query_batch_matches_sequential``).
    for i, (seq_list, batched_list) in enumerate(
            zip(reference["lists"], fast["lists"])):
        assert seq_list.ids == batched_list.ids, (
            f"list[{i}] ranking diverged: {seq_list.ids} vs "
            f"{batched_list.ids}")
        np.testing.assert_allclose(
            [entry.score for entry in seq_list],
            [entry.score for entry in batched_list], rtol=1e-9, atol=1e-12)


register(OraclePair(
    name="serving.batched_vs_sequential",
    reference=lambda **case: _serving_run(False, **case),
    fast=lambda **case: _serving_run(True, **case),
    strategy=Strategy(
        "serving",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "tenants": int(rng.integers(1, 4)),
                     "per_tenant": int(rng.integers(1, 6)),
                     "batch": int(rng.integers(2, 7)),
                     "limited": int(rng.integers(0, 2))},
        {"tenants": shrink_int(1), "per_tenant": shrink_int(1),
         "batch": shrink_int(1)},
    ),
    compare=_serving_compare,
    cases=3,
    description="micro-batched serving front end matches sequential replay",
))


# ---------------------------------------------------------------------- #
# trace-and-fuse replay vs eager forward/backward
# ---------------------------------------------------------------------- #
def _fused_run(fused: bool, seed: int, batch: int, frames: int, grad: int):
    from repro.nn import jit
    from repro.nn.tensor import no_grad
    from repro.qa.world import tiny_extractor

    model = tiny_extractor(seed % 9973)
    if grad:
        for param in model.parameters():
            param.requires_grad = True
    run = jit.compile(model) if fused else model
    rng = np.random.default_rng(seed + 1)
    results = {}
    # Two distinct inputs per case: trial 0 is the recording pass on the
    # fused side (eager by construction), so only trial 1 exercises the
    # replay schedule — stale captured buffers cannot hide behind the
    # trace-time result.
    for trial in range(2):
        x = rng.standard_normal((batch, 3, frames, 8, 8))
        if grad:
            for param in model.parameters():
                param.grad = None
            xt = Tensor(x, requires_grad=True)
            out = run(xt)
            out.backward(np.ones_like(out.data))
            results[f"out.{trial}"] = out.data
            results[f"grad_x.{trial}"] = xt.grad
            for name, param in model.named_parameters():
                results[f"grad.{name}.{trial}"] = param.grad
        else:
            with no_grad():
                results[f"out.{trial}"] = run(Tensor(x)).data
    return results


def _fused_compare(reference, fast):
    assert reference.keys() == fast.keys()
    for key, value in reference.items():
        if value is None:
            assert fast[key] is None, f"{key}: eager None vs fused array"
            continue
        np.testing.assert_array_equal(value, fast[key], err_msg=key)


register(OraclePair(
    name="nn.fused_vs_eager",
    reference=lambda **case: _fused_run(False, **case),
    fast=lambda **case: _fused_run(True, **case),
    strategy=Strategy(
        "fused",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "batch": int(rng.integers(1, 3)),
                     "frames": int(rng.integers(1, 4)),
                     "grad": int(rng.integers(0, 2))},
        {"batch": shrink_int(1), "frames": shrink_int(1)},
    ),
    compare=_fused_compare,
    cases=3,
    description="trace-and-fuse replay is bit-identical to eager "
                "(outputs and gradients, replay pass included)",
))


register(OraclePair(
    name="ndcg.scalar_vs_many",
    reference=lambda seed, num_lists, length, universe: [
        ndcg_similarity(a, _ndcg_lists(seed, num_lists, length, universe)[1])
        for a in _ndcg_lists(seed, num_lists, length, universe)[0]
    ],
    fast=lambda seed, num_lists, length, universe:
        ndcg_similarity_many(*_ndcg_lists(seed, num_lists, length, universe)),
    strategy=Strategy(
        "ndcg",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "num_lists": int(rng.integers(1, 6)),
                     "length": int(rng.integers(1, 10)),
                     "universe": int(rng.integers(10, 30))},
        {"num_lists": shrink_int(1), "length": shrink_int(1)},
    ),
    compare=_exact_compare,
    cases=8,
    description="ndcg_similarity_many is bit-identical to scalar calls",
))


# ---------------------------------------------------------------------- #
# composed strategies vs monolithic attack loops
# ---------------------------------------------------------------------- #
#: The paper's attacks re-expressed as registry compositions; the
#: reference side runs each as a monolithic loop over the raw support
#: function / transfer stage and search primitive (never through the
#: registry), so the contract is non-vacuous.  ``duo-untargeted`` is the
#: ``duo`` composition run without a target video.
_REFERENCE_ATTACKS = ("vanilla", "heu-sim", "heu-nes", "duo", "timi",
                      "duo-untargeted")


def _attack_digests(service, adversarial, trace, queries) -> dict:
    return {
        "perturbation_digest": array_digest(adversarial.pixels),
        "trace": [float(value) for value in trace],
        "queries": int(queries),
        "service_queries": int(service.query_count),
    }


def _duo_reference(world, seed: int, iters: int, targeted: bool) -> dict:
    """DUO's loop: SparseTransfer then SimBA over its support, twice."""
    rng = np.random.default_rng(seed + 17)
    target = world.target if targeted else None
    objective = RetrievalObjective(world.service, world.original, target)
    transfer = SparseTransfer(tiny_extractor(seed + 23), k=48, n=2, tau=30.0,
                              outer_iters=1, theta_steps=3,
                              targeted=targeted, rng=rng)
    current = world.original
    trace: list[float] = []
    for _ in range(2):
        # {I, F, θ, v_adv} → {I, F, θ, v}: each loop re-plans from the
        # rectified video.
        priors = transfer.run(current, target)
        initial = clip_video_range(current.pixels, priors.perturbation())
        support = priors.support()
        if not np.any(support):
            current = current.perturbed(initial)
            continue
        report = simba_search(current, objective, support, tau=30 / 255.0,
                              iterations=iters, rng=rng, initial=initial,
                              project_initial=False)
        trace.extend(report.trace)
        current = report.adversarial
    return _attack_digests(world.service, current, trace, objective.queries)


def _reference_attack_run(name: str, seed: int, iters: int) -> dict:
    """The monolithic recipe for each attack."""
    world = build_world(seed, cache_size=0)
    if name in ("duo", "duo-untargeted"):
        return _duo_reference(world, seed, iters, targeted=name == "duo")
    if name == "timi":
        report = timi_transfer(tiny_extractor(seed + 23), world.original,
                               world.target, tau=30 / 255.0,
                               iterations=iters)
        return _attack_digests(world.service, report.adversarial,
                               report.trace, report.queries)

    rng = np.random.default_rng(seed + 17)
    objective = RetrievalObjective(world.service, world.original,
                                   world.target)
    if name == "vanilla":
        support = random_support(world.original.pixels.shape, 48, 2, rng=rng)
        report = simba_search(world.original, objective, support,
                              tau=30 / 255.0, iterations=iters, rng=rng)
    elif name == "heu-sim":
        support = saliency_support(world.original, 48, 2, random_pixels=True,
                                   rng=rng)
        report = simba_search(world.original, objective, support,
                              tau=30 / 255.0, iterations=iters, rng=rng)
    else:  # heu-nes
        support = saliency_support(world.original, 48, 2, rng=rng)
        report = nes_search(world.original, objective, support,
                            tau=30 / 255.0, iterations=iters, samples=2,
                            rng=rng)
    return _attack_digests(world.service, report.adversarial, report.trace,
                           objective.queries)


def _composed_attack_run(name: str, seed: int, iters: int) -> dict:
    """The same attack through the registry and the ComposedAttack driver."""
    world = build_world(seed, cache_size=0)
    rng = np.random.default_rng(seed + 17)
    duo = name in ("duo", "duo-untargeted")
    surrogate = tiny_extractor(seed + 23) if duo or name == "timi" else None
    if duo:
        config = AttackConfig(strategy="duo", k=48, n=2, tau=30.0,
                              iterations=iters, rounds=2,
                              sampler={"outer_iters": 1, "theta_steps": 3})
    elif name == "timi":
        config = AttackConfig(strategy="timi", tau=30.0, iterations=iters)
    elif name == "heu-nes":
        config = AttackConfig(strategy="heu-nes", k=48, n=2, tau=30.0,
                              iterations=iters, feedback={"samples": 2})
    else:
        config = AttackConfig(strategy=name, k=48, n=2, tau=30.0,
                              iterations=iters)
    attack = build_attack(config,
                          service=None if name == "timi" else world.service,
                          surrogate=surrogate, rng=rng)
    target = None if name == "duo-untargeted" else world.target
    report = attack.run(world.original, target)
    return _attack_digests(world.service, report.adversarial, report.trace,
                           report.queries)


register(OraclePair(
    name="attacks.composed_vs_legacy",
    reference=_reference_attack_run,
    fast=_composed_attack_run,
    strategy=Strategy(
        "composed_attack",
        lambda rng: {
            "name": str(rng.choice(_REFERENCE_ATTACKS)),
            "seed": int(rng.integers(0, 500)),
            "iters": int(rng.integers(2, 6)),
        },
        {"iters": shrink_int(2)},
    ),
    compare=_exact_compare,
    cases=5,
    description="every paper attack (and untargeted DUO) as a registry "
                "composition is bit-identical to its monolithic loop "
                "(trace, queries, pixels)",
))


# ---------------------------------------------------------------------- #
# scale-out serving: worker pool + live gallery churn
# ---------------------------------------------------------------------- #
#: Index tiers the serving oracles draw, by position (shrinks to exact).
_SERVING_TIERS = ("exact", "hamming", "ivfpq")


def _pooled_world(seed: int, replication: int = 1, tier: int = 0):
    """A deterministic three-shard world for pooled and churn runs.

    Every gallery accepts live mutation, so the mutating timeline draws
    ``replication`` too; replicated reads without churn have their own
    oracle (``gallery.replicated_vs_single``).  No breakers (the pool
    would fall back to one worker); uncovered reads degrade.  A
    compressed ``tier`` gets 160 rows per shard at r = 1, more than its
    rerank depth (64), so its scans really are approximate.
    """
    world = build_world(seed % 997, num_videos=480 if tier else 12,
                        num_nodes=3, replication=replication)
    world.engine.configure_resilience(world.engine.resilience.with_(
        breaker=None, on_data_loss="degrade"))
    world.engine.configure_index_tier(_SERVING_TIERS[tier])
    return world


def _pooled_config(batch: int, workers: int) -> ServingConfig:
    # Uncontended queue, no budgets: shedding under load has its own
    # tests; the pooled contract is about clean-path equivalence.
    return ServingConfig(max_batch_size=batch, max_wait_s=0.003,
                         queue_capacity=512, workers=workers)


def _attach_detector(service, detector: int):
    """Attach a stateful detector as ``service``'s preprocessor when drawn."""
    if not detector:
        return None
    attached = StatefulQueryDetector()
    service.config = service.config.with_(
        preprocessor=attached.preprocessor("edge"))
    return attached


def _pooled_run(workers: int, seed: int, tenants: int, per_tenant: int,
                batch: int, detector: int, faults: int = 0, tier: int = 0):
    """A pure-query timeline through the front end at a worker count.

    The contract: worker count is semantics-invisible.  Admission,
    accounting, snapshotting and a drawn stateful detector (the
    service's preprocessor) run on the event-loop thread at
    arrival/dispatch virtual times, so W workers change virtual
    latencies and throughput but never statuses, rankings, ledgers, or
    what the detector saw — nor, under a drawn flaky + corrupt plan
    keyed by request index, the faults met — on every index tier.
    """
    world = _pooled_world(seed, tier=tier)
    attached = _attach_detector(world.service, detector)
    specs = [TenantSpec(f"tenant-{i}", 150.0 + 50.0 * i, per_tenant)
             for i in range(tenants)]
    timeline = generate_timeline(seed + 11, specs, world.gallery_videos)
    plan = FaultPlan(seed).flaky("node-0", 0.3).corrupt("node-1", 0.3)
    with plan.install(world.engine.gallery) if faults else nullcontext():
        report = ServingFrontend(
            world.service, _pooled_config(batch, workers)).run(timeline)
    return {**_serving_digest(world, report, attached),
            "faults": sorted(plan.timeline())}


register(OraclePair(
    name="serving.pooled_vs_single",
    reference=lambda **case: _pooled_run(1, **case),
    fast=lambda **case: _pooled_run(3, **case),
    strategy=Strategy(
        "serving_pool",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "tenants": int(rng.integers(1, 4)),
                     "per_tenant": int(rng.integers(1, 6)),
                     "batch": int(rng.integers(2, 7)),
                     "detector": int(rng.integers(0, 2)),
                     "faults": int(rng.integers(0, 2)),
                     "tier": int(rng.integers(0, 3))},
        {"tenants": shrink_int(1), "per_tenant": shrink_int(1),
         "batch": shrink_int(1), "detector": shrink_int(0),
         "faults": shrink_int(0), "tier": shrink_int(0)},
    ),
    compare=_serving_compare,
    cases=3,
    description="worker-pool execution is semantics-invisible: statuses, "
                "rankings, ledgers, detector hits and keyed fault draws "
                "match the single-worker scheduler",
))


def _mutating_timeline(seed: int, tenants: int, per_tenant: int,
                       adds: int, deletes: int, reembeds: int,
                       replication: int, tier: int):
    """One (requests ⊎ events) timeline and its world, deterministically."""
    from repro.serving import generate_churn

    world = _pooled_world(seed, replication, tier)
    specs = [TenantSpec(f"tenant-{i}", 150.0 + 50.0 * i, per_tenant)
             for i in range(tenants)]
    requests = generate_timeline(seed + 11, specs, world.gallery_videos)
    horizon = max((request.arrival_s for request in requests), default=0.1)
    events = generate_churn(seed, [v.video_id for v in world.gallery_videos],
                            adds=adds, deletes=deletes, reembeds=reembeds,
                            horizon_s=horizon)
    return world, list(requests) + list(events)


def _mutating_run(pooled: bool, seed: int, tenants: int, per_tenant: int,
                  adds: int, deletes: int, reembeds: int, batch: int,
                  replication: int, detector: int, tier: int):
    """Replay a mutating timeline pooled (W=3) or sequentially.

    The contract: a query admitted at time t sees exactly the gallery
    version current at t (events before queries on ties), no matter how
    long its batch waits on a worker — snapshot pinning at admission
    makes add/delete/re-embed under traffic linearizable at arrival
    order, with bit-identical ledgers, on every index tier.
    """
    world, timeline = _mutating_timeline(seed, tenants, per_tenant,
                                         adds, deletes, reembeds,
                                         replication, tier)
    attached = _attach_detector(world.service, detector)
    config = _pooled_config(batch, 3)
    if pooled:
        report = ServingFrontend(world.service, config).run(timeline)
    else:
        report = reference.replay_sequential(timeline, world.service, config)
    return {**_serving_digest(world, report, attached),
            "events": report.gallery_events}


def _mutating_compare(reference, fast):
    assert reference["events"] == fast["events"], (
        f"applied-event counts diverged: {reference['events']} vs "
        f"{fast['events']}")
    _serving_compare(reference, fast)


register(OraclePair(
    name="serving.mutating_timeline",
    reference=lambda **case: _mutating_run(False, **case),
    fast=lambda **case: _mutating_run(True, **case),
    strategy=Strategy(
        "serving_churn",
        lambda rng: {"seed": int(rng.integers(0, 2**31)),
                     "tenants": int(rng.integers(1, 4)),
                     "per_tenant": int(rng.integers(2, 7)),
                     "adds": int(rng.integers(0, 4)),
                     "deletes": int(rng.integers(0, 5)),
                     "reembeds": int(rng.integers(0, 4)),
                     "batch": int(rng.integers(2, 7)),
                     "replication": int(rng.integers(1, 3)),
                     "detector": int(rng.integers(0, 2)),
                     "tier": int(rng.integers(0, 3))},
        {"tenants": shrink_int(1), "per_tenant": shrink_int(1),
         "adds": shrink_int(0), "deletes": shrink_int(0),
         "reembeds": shrink_int(0), "batch": shrink_int(1),
         "replication": shrink_int(1), "detector": shrink_int(0),
         "tier": shrink_int(0)},
    ),
    compare=_mutating_compare,
    cases=3,
    description="interleaved query/add/delete/re-embed replayed "
                "sequentially matches the pooled front end: statuses, "
                "rankings, ledgers, detector hits and applied-event counts",
))
