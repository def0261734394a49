"""The three workloads: inputs from a seed, one timed task, output checks.

Every workload runs against the same victim: a ResNet-18+LSTM feature
extractor (fixed weights) over a 256-video gallery sharded across four
data nodes, exact index tier, top-10 lists.  Only the inputs change with
the seed: gallery and query clips, attack pairs, request timelines and
gallery mutations.

``duo``
    One DUO attack per task: SparseTransfer on a white-box surrogate
    picks frames and pixels, then SparseQuery (SimBA with speculative
    pair evaluation) spends victim queries.
``serve``
    One open-loop timeline per task: four tenants with Poisson arrivals
    at the virtual cost model's capacity, micro-batched on one worker.
    Every request carries a fresh clip, so the embedding cache only
    misses.
``churn``
    The same front end fed live gallery adds, deletes and re-embeds, so
    it runs the pooled scheduler and each request pins a gallery
    snapshot.  Query clips come from a small pool, so the embedding
    cache hits.  One worker, so timings follow the churn code paths
    rather than thread hand-offs under the interpreter lock.

Each run draws a dozen input variants and cycles tasks through them, so
every variant is repeated several times.  A task starts from a fresh
engine over the indexed gallery, so no task inherits another's cache or
mutations, and repeats of a variant do identical work.  Outputs are
checked against a brute-force reference: each clip embedded alone by
the victim model and ranked by numpy over the gallery state the request
saw.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.attacks import AttackConfig, build_attack
from repro.models import create_feature_extractor
from repro.retrieval import RetrievalEngine, RetrievalService
from repro.serving import (
    AddVideo,
    DeleteVideo,
    ReembedVideo,
    Request,
    ServingConfig,
    ServingFrontend,
    TenantSpec,
    generate_churn,
    generate_timeline,
    merge_timeline,
)
from repro.video.types import Video

CLIP = (8, 16, 16, 3)
GALLERY_SIZE = 256
NODES = 4
TOP_M = 10
CACHE_SIZE = 256
#: Model weights belong to the system under test, not to its inputs.
VICTIM_SEED, SURROGATE_SEED = 1001, 1002
#: Input variants per run; tasks cycle through them.
VARIANTS = 12
#: Score tolerance against the reference (a batched forward may differ
#: from a one-clip forward in the last bits).
SCORE_TOL = 1e-6

SERVING = ServingConfig(
    max_batch_size=8, max_wait_s=0.002, queue_capacity=4096,
    service_base_s=0.004, service_per_item_s=0.001, workers=1, churn=False)
TENANTS, PER_TENANT = 4, 40
#: Offered load: the virtual cost model's capacity at full batches.
CAPACITY_QPS = SERVING.max_batch_size / (
    SERVING.service_base_s
    + SERVING.service_per_item_s * SERVING.max_batch_size)
CHURN_POOL = 24
CHURN_EVENTS = 12  # adds, deletes and re-embeds each, per task

#: One transfer sweep (short θ and frame steps) and 100 SimBA
#: iterations: a whole attack takes a fraction of a second, so a run
#: repeats every variant several times.
ATTACK = AttackConfig(
    strategy="duo", k=192, n=3, tau=30.0, iterations=100, rounds=1,
    sampler={"outer_iters": 1, "theta_steps": 8, "frame_steps": 4})


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def make_clips(rng: np.random.Generator, count: int, prefix: str,
               label_base: int = 0) -> list[Video]:
    return [Video(rng.random(CLIP), label=label_base + i % 5,
                  video_id=f"{prefix}-{i}") for i in range(count)]


def build_extractor(seed: int, backbone: str):
    extractor = create_feature_extractor(
        backbone, feature_dim=32, width=4, rng=np.random.default_rng(seed))
    extractor.eval()
    extractor.requires_grad_(False)
    return extractor


@dataclasses.dataclass
class Victim:
    """The indexed gallery every task's fresh engine is built from."""

    extractor: object
    gallery: list[Video]
    features: np.ndarray
    surrogate: object = None

    def service(self) -> RetrievalService:
        engine = RetrievalEngine(self.extractor, num_nodes=NODES,
                                 cache_size=CACHE_SIZE)
        engine.gallery.add_batch([video.video_id for video in self.gallery],
                                 [video.label for video in self.gallery],
                                 self.features)
        return RetrievalService.build(engine, m=TOP_M)


@dataclasses.dataclass
class TaskResult:
    variant: int
    wall_s: float
    queries: int    # victim queries charged
    attempted: int  # requests sent (serving) or queries issued (attack)
    failed: int
    cache: dict     # the task engine's embedding-cache statistics
    output: object  # what :meth:`Workload.check` compares to the reference


class Reference:
    """Brute-force retrieval: one-clip forwards and a numpy ranking."""

    def __init__(self, extractor) -> None:
        self.extractor = extractor
        self._features: dict[int, np.ndarray] = {}  # id(video) → feature

    def feature(self, video: Video) -> np.ndarray:
        if id(video) not in self._features:
            self._features[id(video)] = self.extractor.embed_videos(
                [video], batch_size=1, fuse=False)[0]
        return self._features[id(video)]

    def check(self, result, query: Video, gallery: dict[str, Video],
              where: str) -> None:
        """``result`` must be the exact top-m of ``query`` over ``gallery``."""
        ids = list(gallery)
        rows = np.stack([self.feature(gallery[i]) for i in ids])
        diffs = rows - self.feature(query)[None, :]
        scores = -np.sqrt((diffs * diffs).sum(axis=1))
        by_id = dict(zip(ids, scores))
        best = np.sort(scores)[::-1][:TOP_M]
        got = result.ids
        _require(len(got) == len(best) and len(set(got)) == len(got),
                 f"{where}: {len(got)} results, expected {len(best)}")
        _require(all(video_id in by_id for video_id in got),
                 f"{where}: returned an id not in the gallery it saw")
        ranked = np.array([by_id[video_id] for video_id in got])
        returned = np.array([entry.score for entry in result])
        _require(np.allclose(ranked, best, rtol=0, atol=SCORE_TOL),
                 f"{where}: ranking differs from the reference")
        _require(np.allclose(returned, ranked, rtol=0, atol=SCORE_TOL),
                 f"{where}: scores differ from the reference")


class Workload:
    """Inputs drawn from one seed, plus set-up, task and check."""

    name = ""
    salt = 0  # keeps workloads' input streams apart under one seed

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.gallery = make_clips(self.rng(0), GALLERY_SIZE, "g")
        self._variants: dict[int, object] = {}

    def rng(self, stream: int) -> np.random.Generator:
        """Stream 0 draws the gallery, stream ``v + 1`` variant ``v``."""
        return np.random.default_rng([self.seed, self.salt, stream])

    def variant(self, index: int) -> tuple[int, object]:
        """Task ``index``'s variant number and its (memoized) inputs."""
        number = index % VARIANTS
        if number not in self._variants:
            self._variants[number] = self.draw(self.rng(number + 1), number)
        return number, self._variants[number]

    def draw(self, rng: np.random.Generator, number: int):
        """The inputs of variant ``number``."""
        raise NotImplementedError

    def setup(self) -> Victim:
        """Build the victim and index the gallery (``setup_s``)."""
        extractor = build_extractor(VICTIM_SEED, "resnet18")
        features = extractor.embed_videos(self.gallery, batch_size=16)
        victim = Victim(extractor, self.gallery, features)
        victim.service()  # building the sharded index is set-up work too
        return victim

    def task(self, victim: Victim, index: int) -> TaskResult:
        """Run task ``index`` on its variant's inputs; raises
        :class:`CheckFailed` when an output breaks an invariant that needs
        no reference."""
        raise NotImplementedError

    def check(self, victim: Victim, result: TaskResult) -> None:
        """Compare one task's outputs with the brute-force reference."""
        raise NotImplementedError


def _check_ledger(service: RetrievalService, where: str) -> None:
    _require(service.queries_issued == service.query_count
             + service.queries_refunded,
             f"{where}: query ledger does not balance")


class DuoWorkload(Workload):
    name = "duo"
    salt = 1

    def setup(self) -> Victim:
        victim = super().setup()
        victim.surrogate = build_extractor(SURROGATE_SEED, "c3d")
        return victim

    def draw(self, rng: np.random.Generator, number: int):
        return tuple(make_clips(rng, 2, f"pair{number}", 90))

    def task(self, victim: Victim, index: int) -> TaskResult:
        number, (original, target) = self.variant(index)
        service = victim.service()
        attack = build_attack(ATTACK.with_(seed=number), service=service,
                              surrogate=victim.surrogate)
        start = time.perf_counter()
        report = attack.run(original, target)
        wall = time.perf_counter() - start

        where = f"duo task {index}"
        _check_ledger(service, where)
        _require(report.queries == service.query_count > 0,
                 f"{where}: report counts {report.queries} queries, "
                 f"service charged {service.query_count}")
        delta = report.adversarial.pixels - original.pixels
        _require(np.abs(delta).max() <= ATTACK.tau_unit() + 1e-9,
                 f"{where}: perturbation exceeds tau")
        _require(report.adversarial.pixels.min() >= 0.0
                 and report.adversarial.pixels.max() <= 1.0,
                 f"{where}: adversarial pixels leave [0, 1]")
        frames = int(np.count_nonzero(
            np.abs(delta).reshape(CLIP[0], -1).max(axis=1)))
        _require(frames <= ATTACK.n,
                 f"{where}: {frames} frames perturbed, budget {ATTACK.n}")
        return TaskResult(number, wall, service.query_count,
                          service.queries_issued,
                          service.queries_refunded,
                          service.engine.embedding_cache.stats(),
                          (report.adversarial, service))

    def check(self, victim: Victim, result: TaskResult) -> None:
        adversarial, service = result.output
        gallery = {video.video_id: video for video in victim.gallery}
        Reference(victim.extractor).check(
            service.query(adversarial), adversarial, gallery,
            "duo adversarial")


class ServeWorkload(Workload):
    name = "serve"
    salt = 2

    def draw(self, rng: np.random.Generator, number: int) -> list:
        """Poisson requests, each with a clip no other request uses."""
        fresh = make_clips(rng, TENANTS * PER_TENANT, f"q{number}")
        requests = generate_timeline(int(rng.integers(2**31)), _tenants(),
                                     fresh[:1])
        return [dataclasses.replace(request, video=video)
                for request, video in zip(requests, fresh)]

    def task(self, victim: Victim, index: int) -> TaskResult:
        number, timeline = self.variant(index)
        service = victim.service()
        frontend = ServingFrontend(service, SERVING)
        start = time.perf_counter()
        report = frontend.run(timeline)
        wall = time.perf_counter() - start

        where = f"{self.name} task {index}"
        _check_ledger(service, where)
        _require(service.query_count == report.served,
                 f"{where}: served {report.served} requests, service "
                 f"charged {service.query_count}")
        requests = len(report.responses)
        return TaskResult(number, wall, report.served, requests,
                          requests - report.served,
                          service.engine.embedding_cache.stats(),
                          (timeline, report))

    def check(self, victim: Victim, result: TaskResult) -> None:
        # Replay the canonical interleaving: each request is checked
        # against the gallery as it stood when the request arrived.
        timeline, report = result.output
        reference = Reference(victim.extractor)
        gallery = {video.video_id: video for video in victim.gallery}
        position = {id(request): number for number, request in enumerate(
            item for item in timeline if isinstance(item, Request))}
        for item in merge_timeline(timeline):
            if isinstance(item, (AddVideo, ReembedVideo)):
                gallery[item.video.video_id] = item.video
            elif isinstance(item, DeleteVideo):
                del gallery[item.video_id]
            else:
                response = report.responses[position[id(item)]]
                if response.ok:
                    reference.check(response.result, item.video, gallery,
                                    f"{self.name} {item.request_id}")


class ChurnWorkload(ServeWorkload):
    name = "churn"
    salt = 3

    def draw(self, rng: np.random.Generator, number: int) -> list:
        """Requests over a small clip pool, interleaved with mutations."""
        seed = int(rng.integers(2**31))
        requests = generate_timeline(
            seed, _tenants(), make_clips(rng, CHURN_POOL, f"q{number}"))
        events = generate_churn(
            seed, [video.video_id for video in self.gallery],
            adds=CHURN_EVENTS, deletes=CHURN_EVENTS, reembeds=CHURN_EVENTS,
            horizon_s=max(request.arrival_s for request in requests),
            frames=CLIP[0], height=CLIP[1], width=CLIP[2], channels=CLIP[3])
        return list(requests) + list(events)


def _tenants() -> list[TenantSpec]:
    return [TenantSpec(f"tenant-{t}", CAPACITY_QPS / TENANTS, PER_TENANT)
            for t in range(TENANTS)]


WORKLOADS = {cls.name: cls for cls in (DuoWorkload, ServeWorkload,
                                       ChurnWorkload)}
