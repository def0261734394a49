"""FaultPlan: seeded determinism, outage windows, installation."""

import numpy as np
import pytest

from repro.errors import NodeDownError
from repro.resilience import ANY_NODE, FaultPlan
from repro.retrieval import ShardedGallery


def drive(plan, queries=20, nodes=("node-0", "node-1")):
    """Replay a fixed workload against a plan, recording what happened."""
    outcomes = []
    for _ in range(queries):
        plan.advance(1)
        for node_id in nodes:
            try:
                latency = plan.on_attempt(node_id)
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
        assert drive(plan) == first
        assert plan.timeline() == timeline

    def test_different_seeds_differ(self):
        outcomes = [
            drive(FaultPlan(seed=seed).flaky("node-0", 0.5))
            for seed in (1, 2)
        ]
        assert outcomes[0] != outcomes[1]

    def test_per_node_streams_independent(self):
        # Draining node-0's stream must not shift node-1's draws.
        solo = FaultPlan(seed=3).flaky("node-1", 0.5)
        solo.advance(1)
        solo_draws = [
            drive(solo, queries=10, nodes=("node-1",))
        ]
        both = FaultPlan(seed=3).flaky("node-0", 0.5).flaky("node-1", 0.5)
        both.advance(1)
        both_draws = [
            drive(both, queries=10, nodes=("node-0", "node-1"))
        ]
        solo_events = [o for o in solo_draws[0]]
        both_node1 = [o for o in both_draws[0] if o[0] == "node-1"]
        assert solo_events == both_node1

    def test_corruption_deterministic(self):
        scores = -np.arange(5, dtype=float)[None, :]
        runs = []
        plan = FaultPlan(seed=11).corrupt("node-0", 0.5)
        for _ in range(2):
            plan.advance(1)
            runs.append(plan.transform("node-0", scores).tolist())
            plan.reset()
        assert runs[0] == runs[1]
        assert runs[0] != scores.tolist()

    def test_corruption_draws_match_per_query_lists(self):
        """A padded batch draws what one call per result list would."""
        block = np.array([[-1.0, -2.0, -3.0, -4.0],
                          [-1.5, -2.5, -np.inf, -np.inf]])
        batched = FaultPlan(seed=5).corrupt("node-0", 0.5)
        batched.advance(2)
        together = batched.transform("node-0", block)
        single = FaultPlan(seed=5).corrupt("node-0", 0.5)
        single.advance(2)
        apart = [single.transform("node-0", block[:1, :4]),
                 single.transform("node-0", block[1:, :2])]
        assert together[0].tolist() == apart[0][0].tolist()
        assert together[1, :2].tolist() == apart[1][0].tolist()
        assert np.all(together[1, 2:] == -np.inf)
        assert batched.timeline() == single.timeline()


class TestOutage:
    def test_window_half_open(self):
        plan = FaultPlan().outage("node-0", 2, 4)
        failures = []
        for query in range(6):
            plan.advance(1)
            try:
                plan.on_attempt("node-0")
            except NodeDownError:
                failures.append(query)
        assert failures == [2, 3]

    def test_wildcard_applies_to_all_nodes(self):
        plan = FaultPlan().outage(ANY_NODE, 0, 1)
        plan.advance(1)
        for node_id in ("node-0", "node-7"):
            with pytest.raises(NodeDownError):
                plan.on_attempt(node_id)

    def test_batch_advance_overlaps_window(self):
        plan = FaultPlan().outage("node-0", 3, 4)
        plan.advance(8)  # one batched call spanning queries [0, 8)
        with pytest.raises(NodeDownError):
            plan.on_attempt("node-0")


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
        assert all(node.fault_injector is None for node in gallery.nodes)
        with plan.install(gallery):
            assert gallery.fault_plan is plan
            assert all(node.fault_injector is plan
                       for node in gallery.nodes)
        assert gallery.fault_plan is None
        assert all(node.fault_injector is None for node in gallery.nodes)

    def test_restores_on_error(self):
        gallery = ShardedGallery(num_nodes=2)
        with pytest.raises(RuntimeError):
            with FaultPlan().install(gallery):
                raise RuntimeError("boom")
        assert gallery.fault_plan is None
        assert all(node.fault_injector is None for node in gallery.nodes)

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
