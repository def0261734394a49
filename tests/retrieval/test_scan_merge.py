"""The gallery's array scatter/gather: one leg, one merge, best first.

Every gallery read — scalar or batched, on a snapshot the caller pinned
or on the current one — runs each node through
``ShardedGallery._snapshot_search_batch`` and the partial score arrays
through ``ShardedGallery._merge``.  Per-layer
timing wraps exactly those two names, so a read that bypassed them
would silently report zero scan or merge time.
"""

import numpy as np
import pytest

from repro.qa.generators import draw_gallery
from repro.resilience import FaultPlan
from repro.retrieval import ShardedGallery


def build_gallery(rows=64, nodes=4, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    gallery = ShardedGallery(num_nodes=nodes)
    gallery.add_batch(*draw_gallery(rng, rows, dim))
    return gallery, rng.normal(size=(200, dim))


@pytest.fixture
def calls(monkeypatch):
    seen = []
    for name in ("_snapshot_search_batch", "_merge"):
        original = getattr(ShardedGallery, name)

        def spy(self, *args, _name=name, _original=original):
            seen.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(ShardedGallery, name, spy)
    return seen


class TestOnePath:
    def test_unpinned_batch(self, calls):
        gallery, queries = build_gallery()
        gallery.search_batch(queries[:3], k=5)
        assert calls == ["_snapshot_search_batch"] * 4 + ["_merge"]

    def test_scalar_search(self, calls):
        gallery, queries = build_gallery()
        gallery.search(queries[0], k=5)
        assert calls == ["_snapshot_search_batch"] * 4 + ["_merge"]

    def test_pinned_batch(self, calls):
        gallery, queries = build_gallery()
        gallery.delete("v1")
        snap = gallery.snapshot()
        gallery.search_batch(queries[:3], k=5, snapshot=snap)
        assert calls == ["_snapshot_search_batch"] * 4 + ["_merge"]


class TestCorruptedMerge:
    """Corrupted node lists are unsorted; the merge must still rank."""

    @pytest.mark.parametrize("batched", [False, True])
    def test_merged_lists_are_best_first_at_replication_1(self, batched):
        gallery, queries = build_gallery()
        plan = FaultPlan(seed=3).corrupt("node-1", 0.5)
        with plan.install(gallery):
            if batched:
                results = gallery.search_batch(queries, k=10)
            else:
                results = [gallery.search(query, k=10) for query in queries]
        assert any(event.kind == "corrupt" for event in plan.events)
        for entries in results:
            scores = [entry.score for entry in entries]
            assert scores == sorted(scores, reverse=True)
