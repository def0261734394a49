"""ISSUE acceptance scenario: attack rides out a node loss, exactly.

Four data nodes with replication r=2; a seeded fault plan kills one node
partway through a DUO query-stage run and never brings it back.  The attack
must complete end to end with a trace, final perturbation, and query
accounting identical to a fault-free run — the replicas make retrieval
exact, so the attacker cannot even tell the incident happened.
"""

import numpy as np

from repro.qa.pairs import duo_query_attack
from repro.resilience import BreakerPolicy, FaultPlan, ResilienceConfig

from tests.resilience.conftest import build_service, make_videos
from tests.resilience.test_checkpoint import make_priors


def resilient_config():
    return ResilienceConfig(
        replication=2, retry=None,
        breaker=BreakerPolicy(failure_threshold=2, cooldown_s=3600.0),
        on_data_loss="raise")


def run_attack(service, original, target, priors):
    """DUO's query stage (``duo-query``) over fixed priors."""
    report = duo_query_attack(priors, 10, service, 0).run(original, target)
    return report.adversarial, report.trace, report


class TestNodeLossMidAttack:
    def test_attack_unaffected_by_node_loss(self):
        original, target = make_videos(2, seed=99)
        priors = make_priors(original.pixels.shape, seed=4)

        clean_service = build_service(num_nodes=4,
                                      resilience=resilient_config())
        clean_adv, clean_trace, clean_report = run_attack(
            clean_service, original, target, priors)

        faulted_service = build_service(num_nodes=4,
                                        resilience=resilient_config())
        # Kill node-1 from logical query 6 onwards (mid-run), forever.
        plan = FaultPlan(seed=1).outage("node-1", 6, 10 ** 9)
        with plan.install(faulted_service.engine.gallery):
            adversarial, trace, report = run_attack(
                faulted_service, original, target, priors)

        assert any(kind == "outage" for _, _, kind in plan.timeline()), \
            "the scripted outage never fired"
        assert trace == clean_trace
        np.testing.assert_array_equal(adversarial.pixels, clean_adv.pixels)
        assert report.queries == clean_report.queries
        assert faulted_service.query_count == clean_service.query_count
        # The breaker tripped and stopped burning attempts on the corpse.
        breaker = faulted_service.engine.gallery._breakers["node-1"]
        assert breaker.state == "open"
