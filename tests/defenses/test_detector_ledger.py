"""A stateful detector joins the query ledger: observed == issued.

The detector attaches as the service's preprocessor, an identity
transform whose ``commit`` observes.  The service commits exactly the
issued queries — an interrupted batch's served prefix and refunded
failing query, the candidates a speculating attack consumed — so the
detector's observed count equals ``queries_issued`` through outages,
checkpoint resumes and speculation.  A refunded query is issued, and a
resume sends it again, so the detector rightly observes it twice.
"""

import numpy as np
import pytest

from repro.attacks.objective import RetrievalObjective
from repro.attacks.search import nes_search
from repro.defenses import StatefulQueryDetector
from repro.errors import RetrievalUnavailable
from repro.qa.pairs import _qa_priors, duo_query_attack
from repro.qa.world import build_world
from repro.resilience import ANY_NODE, FaultPlan


def _guard(service):
    detector = StatefulQueryDetector()
    service.config = service.config.with_(
        preprocessor=detector.preprocessor("edge"))
    return detector


def test_interrupted_query_batch_commits_only_issued_queries():
    world = build_world(47, num_nodes=1)
    detector = _guard(world.service)
    with FaultPlan().outage("node-0", 2, 4).install(world.engine.gallery):
        with pytest.raises(RetrievalUnavailable):
            world.service.query_batch(world.gallery_videos[:6])
    # Two served, the failing one refunded, three never issued.
    assert world.service.queries_issued == 3
    assert detector.observed_count("edge") == world.service.queries_issued


def test_nes_resume_under_outage_keeps_observed_equal_to_issued(tmp_path):
    world = build_world(47)
    detector = _guard(world.service)
    support = np.zeros(world.original.pixels.shape, dtype=bool)
    support[:2] = True
    path = str(tmp_path / "nes.pkl")
    failures = 0
    with FaultPlan().outage(ANY_NODE, 5, 7).install(world.engine.gallery):
        while True:
            try:
                objective = RetrievalObjective(world.service, world.original,
                                               world.target)
                nes_search(world.original, objective, support, tau=0.06,
                           iterations=4, samples=2,
                           rng=np.random.default_rng(11),
                           checkpoint_path=path)
                break
            except RetrievalUnavailable:
                failures += 1
                assert failures < 5
    assert failures >= 1, "the outage never interrupted the attack"
    assert world.service.queries_refunded >= 1
    assert detector.observed_count("edge") == world.service.queries_issued


def _duo_query_run(guarded: bool, sequential: bool = False) -> dict:
    """DUO's query stage (20 iterations) on qa world 47, forwards counted."""
    world = build_world(47)
    detector = _guard(world.service) if guarded else None
    batches = []
    embed = world.engine.embed_queries

    def counted(videos, *args, **kwargs):
        batches.append(len(videos))
        return embed(videos, *args, **kwargs)

    world.engine.embed_queries = counted
    priors = _qa_priors(world.original.pixels.shape, 18)
    attack = duo_query_attack(priors, 20, world.service, 17)
    if sequential:
        from repro.qa.reference import sequential_attack

        sequential_attack(attack)
    report = attack.run(world.original, world.target)
    service = world.service
    if detector is not None:
        assert detector.observed_count("edge") == service.queries_issued
    return {
        "pixels": report.adversarial.pixels,
        "trace": list(report.trace),
        "ledger": (report.queries, service.query_count,
                   service.queries_issued, service.queries_refunded),
        "detector": None if detector is None else
        (detector.hit_count("edge"), detector.observed_count("edge")),
        "forwards": len(batches),
    }


def test_guarded_duo_query_stage_speculates_like_the_unguarded_run():
    """Speculation stays on under a detector, with identical results."""
    plain = _duo_query_run(guarded=False)
    guarded = _duo_query_run(guarded=True)
    # ±ε pairs share one forward under the detector, as unguarded.
    assert guarded["forwards"] == plain["forwards"] < guarded["ledger"][2]
    sequential = _duo_query_run(guarded=True, sequential=True)
    assert sequential["forwards"] == sequential["ledger"][2]
    for other in (guarded, sequential):
        np.testing.assert_array_equal(other["pixels"], plain["pixels"])
        assert other["trace"] == plain["trace"]
        assert other["ledger"] == plain["ledger"]
    assert guarded["detector"] == sequential["detector"]
    assert guarded["detector"][0] > 0
