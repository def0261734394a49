"""Concurrency stress: readers and a writer hammer one ShardedGallery.

Two modes over the same worker logic (see
:class:`repro.qa.concurrency.BarrierHarness`):

* the tier-1 smoke runs *stepped* — real threads, one step at a time
  under a seeded scheduler, so the interleaving replays exactly;
* the ``slow``/``churn``-marked stress runs *free* — threads race for
  real, hunting interleavings the deterministic schedule cannot reach.

Invariants in both: no torn reads (every retrieval list is coherent
with the snapshot version the reader pinned), gallery accounting
conserves (live size == initial + adds - deletes, version counts every
mutation), and the obs counters match the operations performed.
"""

import threading

import numpy as np
import pytest

from repro.obs import counter, thread_safe_metrics
from repro.qa.concurrency import BarrierHarness
from repro.qa.generators import draw_clustered_gallery
from repro.qa.invariants import check_snapshot_consistency
from repro.retrieval import ShardedGallery

DIM = 8

#: Rows per world by index tier: a compressed world holds more rows per
#: node than the rerank depth (64), so its scans are approximate.
ROWS = {"exact": 24, "hamming": 216, "ivfpq": 216}


class ChurnWorld:
    """One gallery plus the shared bookkeeping a stress run needs."""

    def __init__(self, seed: int = 0, nodes: int = 3, tier: str = "exact"):
        rows = ROWS[tier]
        rng = np.random.default_rng(seed)
        ids, labels, features = draw_clustered_gallery(rng, rows, DIM)
        self.gallery = ShardedGallery(num_nodes=nodes, index_tier=tier)
        for video_id, label, feature in zip(ids, labels, features):
            self.gallery.add(video_id, label, feature)
        self.ingested = self.gallery.version
        self.queries = features[:6]
        self.initial = rows
        # Owned by the single writer thread; readers never touch them.
        self.adds = 0
        self.deletes = 0
        self.reembeds = 0

    def writer_step(self, step: int, rng: np.random.Generator) -> str:
        gallery = self.gallery
        live = gallery.live_ids()
        choice = int(rng.integers(3)) if len(live) > 4 else 0
        if choice == 0:
            video_id = f"fresh-{self.adds}"
            gallery.add(video_id, 90, rng.normal(size=DIM))
            self.adds += 1
            return f"add:{video_id}"
        victim = live[int(rng.integers(len(live)))]
        if choice == 1:
            gallery.delete(victim)
            self.deletes += 1
            return f"delete:{victim}"
        gallery.reembed(victim, 91, rng.normal(size=DIM))
        self.reembeds += 1
        return f"reembed:{victim}"

    def reader_step(self, thread_id: int, step: int,
                    rng: np.random.Generator) -> tuple:
        gallery = self.gallery
        snap = gallery.snapshot()
        query = self.queries[(thread_id + step) % len(self.queries)]
        results = gallery.search(query, k=5, snapshot=snap)
        check_snapshot_consistency(gallery, snap, results, k=5)
        return snap.version, tuple(entry.video_id for entry in results)

    def worker(self, thread_id: int, step: int, rng: np.random.Generator):
        if thread_id == 0:
            return self.writer_step(step, rng)
        return self.reader_step(thread_id, step, rng)

    def check_conservation(self) -> None:
        gallery = self.gallery
        assert len(gallery) == self.initial + self.adds - self.deletes
        mutations = self.adds + self.deletes + self.reembeds
        assert gallery.version == self.ingested + mutations
        assert gallery.physical_rows >= len(gallery)
        live = gallery.live_ids()
        assert len(live) == len(set(live)) == len(gallery)


def run_stress(threads: int, steps: int, seed: int, free: bool,
               tier: str = "exact"):
    world = ChurnWorld(seed=seed, tier=tier)
    before = {name: counter(f"gallery.{name}").value
              for name in ("adds", "deletes", "reembeds")}
    harness = BarrierHarness(threads=threads, steps=steps, seed=seed)
    with thread_safe_metrics():
        outcome = harness.run_free(world.worker) if free else \
            harness.run_stepped(world.worker)
    world.check_conservation()
    for name in ("adds", "deletes", "reembeds"):
        assert counter(f"gallery.{name}").value - before[name] == \
            getattr(world, name), f"gallery.{name} counter drifted"
    return world, outcome


class TestSteppedSmoke:
    def test_no_torn_reads_under_deterministic_interleaving(self):
        world, outcome = run_stress(threads=3, steps=10, seed=4, free=False)
        assert not outcome.errors
        versions = [value[0] for key, value in outcome.results.items()
                    if key[0] != 0]
        assert max(versions) > 0, "readers never observed a mutation"

    def test_same_seed_replays_the_same_schedule_and_reads(self):
        first = run_stress(threads=3, steps=10, seed=7, free=False)[1]
        second = run_stress(threads=3, steps=10, seed=7, free=False)[1]
        assert first.schedule == second.schedule
        assert first.results == second.results

    def test_worker_threads_are_real_threads(self):
        world = ChurnWorld(seed=2)
        main = threading.get_ident()
        harness = BarrierHarness(threads=2, steps=3, seed=0)
        idents = harness.run_stepped(
            lambda tid, step, rng: threading.get_ident()).results
        assert main not in set(idents.values())


@pytest.mark.slow
@pytest.mark.churn
@pytest.mark.parametrize("tier", sorted(ROWS))
class TestFreeRunningStress:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_torn_reads_under_real_races(self, seed, tier):
        world, outcome = run_stress(threads=4, steps=60, seed=seed,
                                    free=True, tier=tier)
        assert not outcome.errors

    def test_many_readers_one_writer_long_haul(self, tier):
        world, outcome = run_stress(threads=6, steps=120, seed=11,
                                    free=True, tier=tier)
        assert not outcome.errors
        assert world.adds + world.deletes + world.reembeds == 120
