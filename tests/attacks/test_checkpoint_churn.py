"""Checkpoint/resume of composed attacks across live gallery mutation.

The registry conformance suite already proves resume is bit-identical
when the world stands still.  Here the gallery *mutates between the
outage and the resume* — videos deleted, re-embedded, and added while
the attack loop is parked on its checkpoint — and the contracts that
must survive are the accounting ones:

* the query ledger stays exactly conserved (every issued query charged
  or refunded, nothing double-counted across the interruption);
* the resumed loop runs to completion inside its budget;
* tombstoned videos never resurrect in post-resume retrieval lists.

Bit-identity with an uninterrupted run is deliberately *not* asserted:
the mutated gallery changes retrieval feedback, so traces legitimately
diverge after the resume point.
"""

import numpy as np
import pytest

from repro.errors import RetrievalUnavailable
from repro.qa.invariants import check_budget_conservation
from repro.resilience import FaultPlan, ResilienceConfig
from repro.video.types import Video

from tests.attacks.test_strategy_registry import QUERYING, make_attack
from tests.resilience.conftest import build_service, make_videos

#: Composed strategies that both query the service and checkpoint.
CHURN_STRATEGIES = [name for name in QUERYING
                    if name in ("rl-sparse", "qair", "lowrank")] or QUERYING


def fresh_video(seed: int, video_id: str, label: int = 4) -> Video:
    rng = np.random.default_rng(seed)
    return Video(rng.random((4, 12, 12, 3)), label=label, video_id=video_id)


@pytest.mark.parametrize("name", CHURN_STRATEGIES)
def test_resume_across_gallery_mutation(name, tmp_path):
    original, target = make_videos(2, seed=99)
    resilience = ResilienceConfig(replication=1, retry=None, breaker=None,
                                  on_data_loss="raise")
    service = build_service(num_nodes=2, resilience=resilience)
    engine = service.engine
    plan = FaultPlan(seed=1).outage("node-0", 3, 6)
    path = tmp_path / f"{name}.pkl"

    failures = 0
    mutated = False
    deleted_id = None
    with plan.install(engine.gallery):
        while True:
            try:
                report = make_attack(name, service, seed=51).run(
                    original, target, checkpoint_path=str(path))
                break
            except RetrievalUnavailable:
                failures += 1
                assert failures < 50
                # The interrupted iteration's in-flight queries are
                # rolled back at *resume* (the mark restores the
                # counts), so conservation is checked after completion,
                # not at this instant.
                if not mutated:
                    # Mutate the gallery while the attack sits parked
                    # on its checkpoint, as live traffic would.
                    live = engine.gallery.live_ids()
                    deleted_id = live[0]
                    engine.remove_video(deleted_id)
                    engine.reembed_video(fresh_video(7, live[1]))
                    engine.add_video(fresh_video(8, "churn-add", label=2))
                    mutated = True

    assert failures >= 1, "the outage never interrupted the attack"
    assert mutated, "the mutation window never opened"
    # Exact refunds across interruption + mutation + resume.
    check_budget_conservation(service)
    assert report.queries == service.query_count
    assert not path.exists(), "completion must delete the checkpoint"

    # No tombstone resurrection: the deleted video must be gone from
    # full-gallery retrieval of the adversarial example.
    retrieval = engine.retrieve(report.adversarial,
                                m=len(engine.gallery) + 2)
    returned = {entry.video_id for entry in retrieval.entries}
    assert deleted_id not in returned
    assert deleted_id not in engine.gallery.live_ids()
    assert "churn-add" in engine.gallery.live_ids()


def test_resume_budget_is_exact_across_mutation(tmp_path):
    """The budget cap counts queries across interruption and churn."""
    original, target = make_videos(2, seed=31)
    resilience = ResilienceConfig(replication=1, retry=None, breaker=None,
                                  on_data_loss="raise")
    service = build_service(num_nodes=2, resilience=resilience)
    plan = FaultPlan(seed=2).outage("node-1", 4, 7)
    path = tmp_path / "budget.pkl"

    budget = 14
    with plan.install(service.engine.gallery):
        while True:
            try:
                report = make_attack("rl-sparse", service, seed=8,
                                     iterations=30, budget=budget).run(
                    original, target, checkpoint_path=str(path))
                break
            except RetrievalUnavailable:
                live = service.engine.gallery.live_ids()
                service.engine.remove_video(live[-1])
    assert 0 < report.queries <= budget
    assert service.query_count <= budget
    check_budget_conservation(service)
