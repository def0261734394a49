"""FaultPlan: keyed determinism, outage windows, installation."""

import numpy as np
import pytest

from repro.errors import NodeDownError, RetrievalUnavailable
from repro.resilience import ANY_NODE, FaultPlan
from repro.retrieval import ShardedGallery


def drive(plan, queries=range(20), nodes=("node-0", "node-1")):
    """Attempt every ``(query, node)`` pair once, recording what happened."""
    outcomes = []
    for query in queries:
        for node_id in nodes:
            try:
                latency = plan.on_attempt(node_id, query)
            except NodeDownError:
                outcomes.append((node_id, "down"))
            else:
                outcomes.append((node_id, round(latency, 12)))
    return outcomes


class TestDeterminism:
    def test_same_seed_same_timeline(self):
        plan = (FaultPlan(seed=7)
                .flaky("node-0", 0.4)
                .slow("node-1", 0.01, jitter_s=0.005)
                .outage("node-0", 5, 9))
        first = drive(plan)
        timeline = plan.timeline()
        plan.reset()
        assert plan.timeline() == []
        assert drive(plan) == first
        assert plan.timeline() == timeline

    def test_different_seeds_differ(self):
        outcomes = [
            drive(FaultPlan(seed=seed).flaky("node-0", 0.5))
            for seed in (1, 2)
        ]
        assert outcomes[0] != outcomes[1]

    def test_per_node_streams_independent(self):
        # Draws against node-0 must not shift node-1's, nor may the order
        # in which queries are visited: every draw is keyed, not streamed.
        solo = FaultPlan(seed=3).flaky("node-1", 0.5)
        solo_draws = drive(solo, queries=range(10), nodes=("node-1",))
        both = FaultPlan(seed=3).flaky("node-0", 0.5).flaky("node-1", 0.5)
        both_node1 = [outcome for outcome in drive(both, queries=range(10))
                      if outcome[0] == "node-1"]
        assert solo_draws == both_node1
        backwards = drive(FaultPlan(seed=3).flaky("node-1", 0.5),
                          queries=range(9, -1, -1), nodes=("node-1",))
        assert backwards[::-1] == solo_draws

    def test_corruption_deterministic(self):
        scores = -np.arange(5, dtype=float)
        plan = FaultPlan(seed=11).corrupt("node-0", 0.5)
        runs = [plan.transform("node-0", scores, query=4).tolist()
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0] != scores.tolist()
        # Another query id or attempt draws other noise.
        assert plan.transform("node-0", scores, query=5).tolist() != runs[0]
        assert plan.transform("node-0", scores, query=4,
                              attempt=2).tolist() != runs[0]
        assert plan.timeline() == [(4, "node-0", "corrupt")] * 2 + \
            [(5, "node-0", "corrupt"), (4, "node-0", "corrupt")]

    def test_corruption_draws_match_per_query_lists(self):
        """A batched search corrupts each row as a lone search would."""
        rng = np.random.default_rng(5)
        gallery = ShardedGallery(num_nodes=2)
        gallery.add_batch([f"v{i}" for i in range(6)], [0] * 6,
                          rng.random((6, 4)))
        queries = rng.random((3, 4))
        batched = FaultPlan(seed=5).corrupt("node-0", 0.5)
        with batched.install(gallery):
            together = gallery.search_batch(queries, 4, query_ids=[7, 8, 9])
        single = FaultPlan(seed=5).corrupt("node-0", 0.5)
        with single.install(gallery):
            apart = [gallery.search_batch(queries[row:row + 1], 4,
                                          query_ids=[7 + row])[0]
                     for row in range(3)]
        assert together == apart
        assert batched.timeline() == single.timeline() == \
            [(query, "node-0", "corrupt") for query in (7, 8, 9)]
        # Padding after a node's real results is never corrupted.
        padded = single.transform("node-0", np.array([-1.0, -np.inf]), 0)
        assert padded[1] == -np.inf and padded[0] != -1.0


class TestOutage:
    def test_window_half_open(self):
        plan = FaultPlan().outage("node-0", 2, 4)
        failures = []
        for query in range(6):
            try:
                plan.on_attempt("node-0", query)
            except NodeDownError:
                failures.append(query)
        assert failures == [2, 3]

    def test_wildcard_applies_to_all_nodes(self):
        plan = FaultPlan().outage(ANY_NODE, 0, 1)
        for node_id in ("node-0", "node-7"):
            with pytest.raises(NodeDownError):
                plan.on_attempt(node_id, 0)
        plan.on_attempt("node-0", 1)

    def test_batch_fails_only_rows_in_window(self):
        # One batched call spanning ids [0, 8) with node-0 down for id 3:
        # rows before it are served, the row inside the window raises,
        # and the rows after it are never looked at.
        rng = np.random.default_rng(0)
        gallery = ShardedGallery(num_nodes=1)
        gallery.add_batch([f"v{i}" for i in range(4)], [0] * 4,
                          rng.random((4, 3)))
        queries = rng.random((8, 3))
        plan = FaultPlan().outage("node-0", 3, 4)
        with plan.install(gallery), pytest.raises(RetrievalUnavailable) \
                as excinfo:
            gallery.search_batch(queries, 2)
        assert excinfo.value.served_count == 3
        assert excinfo.value.served == gallery.search_batch(queries[:3], 2)
        assert plan.timeline() == [(3, "node-0", "outage")]


class TestBuilders:
    def test_validation(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.flaky("node-0", 1.5)
        with pytest.raises(ValueError):
            plan.slow("node-0", -1.0)
        with pytest.raises(ValueError):
            plan.corrupt("node-0", -0.1)
        with pytest.raises(ValueError):
            plan.outage("node-0", 5, 5)

    def test_chaining(self):
        plan = FaultPlan().flaky("a", 0.1).slow("a", 0.2).corrupt("b", 0.3)
        assert set(plan.specs) == {"a", "b"}


class TestInstall:
    def test_install_and_restore(self):
        gallery = ShardedGallery(num_nodes=2)
        plan = FaultPlan().flaky("node-0", 1.0)
        assert gallery.fault_plan is None
        with plan.install(gallery):
            assert gallery.fault_plan is plan
        assert gallery.fault_plan is None

    def test_restores_on_error(self):
        gallery = ShardedGallery(num_nodes=2)
        with pytest.raises(RuntimeError):
            with FaultPlan().install(gallery):
                raise RuntimeError("boom")
        assert gallery.fault_plan is None

    def test_plain_gallery_degrades_on_flake(self):
        gallery = ShardedGallery(num_nodes=2)
        rng = np.random.default_rng(0)
        gallery.add_batch([f"v{i}" for i in range(8)], [0] * 8,
                          rng.random((8, 4)))
        query = rng.random(4)
        full = gallery.search(query, 8)
        with FaultPlan().outage("node-0", 0, 10 ** 9).install(gallery):
            degraded = gallery.search(query, 4)
        # node-0's rows are gone; the result is node-1's share of the
        # full ranking, in order.
        node1_ids = {f"v{i}" for i in range(8)} - \
            {e.video_id for e in gallery.nodes[0].search(query, 8)}
        assert degraded == [e for e in full if e.video_id in node1_ids][:4]

    def test_plan_survives_rebalance(self):
        # The plan lives on the gallery, so the nodes a rebalance builds
        # keep failing under it.
        rng = np.random.default_rng(1)
        gallery = ShardedGallery(num_nodes=2, placement="hash")
        gallery.add_batch([f"v{i}" for i in range(12)], [0] * 12,
                          rng.random((12, 4)))
        query = rng.random(4)
        with FaultPlan().outage(ANY_NODE, 0, 10 ** 9).install(gallery):
            with pytest.raises(RetrievalUnavailable):
                gallery.search(query, 3)
            gallery.rebalance(3)
            with pytest.raises(RetrievalUnavailable):
                gallery.search(query, 3)
        assert len(gallery.search(query, 3)) == 3
