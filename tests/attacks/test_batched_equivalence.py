"""Batched candidate evaluation must be indistinguishable from sequential.

The one production evaluation path (``RetrievalObjective.values``,
speculative ±ε pairs in DUO's query stage/SimBA and the QAIR and
low-rank compositions that share its loop, probe batching in NES)
promises *exact* sequential semantics: same rng consumption, same query
counts, same traces, same accepted perturbations.  These tests run each
attack twice — on :class:`~repro.qa.reference.SequentialObjective` (one
query per candidate), then on the plain objective — against the same
victim and assert the observable state is identical.
"""

import numpy as np
import pytest

from repro.attacks.config import AttackConfig
from repro.attacks.duo import TransferPriors
from repro.attacks.objective import RetrievalObjective
from repro.attacks.registry import build_attack
from repro.attacks.search import nes_search, simba_search
from repro.errors import RetrievalUnavailable
from repro.qa.pairs import duo_query_attack
from repro.qa.reference import SequentialObjective, sequential_attack
from repro.resilience import ANY_NODE, FaultPlan, ResilienceConfig
from repro.retrieval import RetrievalEngine, RetrievalService


@pytest.fixture(scope="module")
def cacheless_engine(tiny_victim):
    """The victim's model + gallery behind a cache-free engine.

    Disabling the embedding cache keeps the equivalence runs honest: the
    second run must reproduce the first through an actual batched model
    forward, not by replaying cached embeddings.
    """
    engine = RetrievalEngine(tiny_victim.engine.extractor, num_nodes=3,
                             cache_size=0)
    engine.gallery = tiny_victim.engine.gallery
    return engine


def fresh_service(engine, **kwargs):
    return RetrievalService.build(engine, m=8, **kwargs)


def make_priors(original, rng, k=60):
    """Synthetic transfer priors over ``k`` random support coordinates."""
    shape = original.pixels.shape
    per_frame = int(np.prod(shape[1:]))
    # Support confined to the first two frames so the frame mask bites.
    flat_support = np.zeros(int(np.prod(shape)), dtype=bool)
    flat_support[rng.choice(2 * per_frame, size=k, replace=False)] = True
    pixel_mask = flat_support.reshape(shape)
    theta = np.zeros(shape)
    theta.reshape(-1)[flat_support] = rng.uniform(-0.1, 0.1, size=k)
    frame_mask = np.zeros(shape[0])
    frame_mask[:2] = 1.0
    return TransferPriors(pixel_mask=pixel_mask, frame_mask=frame_mask,
                          theta=theta)


class TestSparseQueryEquivalence:
    def test_trace_and_result_identical(self, cacheless_engine, attack_pair,
                                        rng):
        original, target = attack_pair
        priors = make_priors(original, rng)
        runs = {}
        for sequential in (True, False):
            service = fresh_service(cacheless_engine)
            report = duo_query_attack(priors, 6, service, 123,
                                      sequential).run(original, target)
            runs[sequential] = (report.adversarial, report.trace,
                                report.queries, service.query_count)
        seq, bat = runs[True], runs[False]
        np.testing.assert_array_equal(bat[0].pixels, seq[0].pixels)
        assert bat[1] == seq[1]          # attack trace, bit-identical
        assert bat[2] == seq[2]          # objective query count
        assert bat[3] == seq[3]          # service query count

    def test_unconsumed_never_committed(self, cacheless_engine, attack_pair,
                                        rng):
        original, target = attack_pair
        priors = make_priors(original, rng)
        transformed, committed = [], []

        class Spy:
            def __call__(self, video):
                transformed.append(video)
                return video

            def commit(self, videos):
                committed.extend(videos)

        service = fresh_service(cacheless_engine, preprocessor=Spy())
        duo_query_attack(priors, 8, service, 1).run(original, target)
        # Speculation transformed candidates the attack never sent...
        assert len(transformed) > service.queries_issued
        # ...but commit saw exactly the issued queries: no phantoms.
        assert len(committed) == service.queries_issued == \
            service.query_count

    def test_budget_exhaustion_identical(self, cacheless_engine, attack_pair,
                                         rng):
        from repro.retrieval import QueryBudgetExceeded

        original, target = attack_pair
        priors = make_priors(original, rng)
        counts = {}
        for sequential in (True, False):
            service = fresh_service(cacheless_engine, query_budget=7)
            attack = duo_query_attack(priors, 50, service, 123, sequential)
            with pytest.raises(QueryBudgetExceeded):
                attack.run(original, target)
            counts[sequential] = (service.query_count,
                                  service.queries_issued,
                                  service.queries_refunded)
        assert counts[True] == counts[False]


class TestSimbaEquivalence:
    def test_trace_identical(self, cacheless_engine, attack_pair, rng):
        original, target = attack_pair
        support = np.zeros(original.pixels.shape, dtype=bool)
        support[:2] = True
        runs = {}
        for sequential in (True, False):
            service = fresh_service(cacheless_engine)
            objective = RetrievalObjective(service, original, target)
            report = simba_search(
                original, SequentialObjective(objective) if sequential
                else objective, support, tau=0.1, iterations=6,
                rng=np.random.default_rng(7),
            )
            runs[sequential] = (report.perturbation, report.trace,
                                objective.queries,
                                service.query_count)
        seq, bat = runs[True], runs[False]
        np.testing.assert_array_equal(bat[0], seq[0])
        assert bat[1:] == seq[1:]


class TestComposedEquivalence:
    @pytest.mark.parametrize("name", ["qair", "lowrank"])
    def test_trace_and_ledger_identical(self, cacheless_engine, attack_pair,
                                        name):
        original, target = attack_pair
        runs = {}
        for sequential in (True, False):
            service = fresh_service(cacheless_engine)
            speculated = []
            speculate = service.speculate
            service.speculate = lambda videos, m=None: (
                speculated.append(len(videos)) or speculate(videos, m))
            attack = build_attack(
                AttackConfig(strategy=name, k=400, n=8, tau=255.0,
                             iterations=8),
                service=service, rng=np.random.default_rng(3))
            if sequential:
                sequential_attack(attack)
            report = attack.run(original, target)
            runs[sequential] = (report.perturbation, report.trace,
                                report.queries, service.query_count,
                                service.queries_issued,
                                service.queries_refunded)
            assert bool(speculated) != sequential
        seq, bat = runs[True], runs[False]
        assert len(set(seq[1])) > 1, "the list never moved"
        np.testing.assert_array_equal(bat[0], seq[0])
        assert bat[1:] == seq[1:]


class TestFaultedEquivalence:
    """Fault draws are keyed by logical query id, so under a corrupt +
    flaky + outage plan on a replicated gallery, speculating and
    sequential runs still agree on everything observable — pixels,
    trace, ledger and the plan's own timeline — through the outage and
    the checkpoint resume it forces."""

    @pytest.mark.parametrize("name", ["simba", "qair", "lowrank"])
    def test_identical_under_faults(self, tiny_victim, tiny_dataset,
                                    attack_pair, name, tmp_path):
        original, target = attack_pair
        support = np.zeros(original.pixels.shape, dtype=bool)
        support[:2] = True
        runs = {}
        for sequential in (True, False):
            engine = RetrievalEngine(
                tiny_victim.engine.extractor, num_nodes=2, cache_size=0,
                resilience=ResilienceConfig(replication=2))
            engine.index_videos(tiny_dataset.train)
            service = fresh_service(engine)
            plan = (FaultPlan(seed=9).corrupt("node-1", 0.3)
                    .flaky("node-0", 0.3).outage(ANY_NODE, 9, 12))
            path = str(tmp_path / f"{name}-{sequential}.pkl")

            def run():
                if name == "simba":
                    objective = RetrievalObjective(service, original, target)
                    return simba_search(
                        original, SequentialObjective(objective)
                        if sequential else objective,
                        support, tau=0.1, iterations=30,
                        rng=np.random.default_rng(7), checkpoint_path=path)
                attack = build_attack(
                    AttackConfig(strategy=name, k=400, n=8, tau=255.0,
                                 iterations=12),
                    service=service, rng=np.random.default_rng(3))
                if sequential:
                    sequential_attack(attack)
                return attack.run(original, target, checkpoint_path=path)

            failures = 0
            with plan.install(engine.gallery):
                while True:
                    try:
                        report = run()
                        break
                    except RetrievalUnavailable:
                        failures += 1
                        assert failures < 10
            runs[sequential] = (report.perturbation, report.trace,
                                report.queries, service.query_count,
                                service.queries_issued,
                                service.queries_refunded, plan.timeline(),
                                failures)
        seq, bat = runs[True], runs[False]
        kinds = {kind for _, _, kind in seq[6]}
        assert kinds == {"corrupt", "flaky", "outage"}
        assert seq[7] >= 1, "the outage never interrupted the attack"
        np.testing.assert_array_equal(bat[0], seq[0])
        assert bat[1:] == seq[1:]


class TestNesEquivalence:
    def test_trace_identical(self, cacheless_engine, attack_pair):
        original, target = attack_pair
        support = np.zeros(original.pixels.shape, dtype=bool)
        support[:2] = True
        runs = {}
        for sequential in (True, False):
            service = fresh_service(cacheless_engine)
            objective = RetrievalObjective(service, original, target)
            report = nes_search(
                original, SequentialObjective(objective) if sequential
                else objective, support, tau=0.06, iterations=2,
                samples=2, rng=np.random.default_rng(11),
            )
            runs[sequential] = (report.perturbation, report.trace,
                                objective.queries,
                                list(objective.trace), service.query_count)
        seq, bat = runs[True], runs[False]
        np.testing.assert_array_equal(bat[0], seq[0])
        assert bat[1:] == seq[1:]


class TestObjectiveValues:
    def test_values_matches_value_loop(self, cacheless_engine, attack_pair,
                                       rng):
        original, target = attack_pair
        candidates = [
            original.perturbed(rng.uniform(-0.05, 0.05,
                                           size=original.pixels.shape))
            for _ in range(4)
        ]
        service_a = fresh_service(cacheless_engine)
        sequential = RetrievalObjective(service_a, original, target)
        expected = [sequential.value(c) for c in candidates]

        service_b = fresh_service(cacheless_engine)
        batched = RetrievalObjective(service_b, original, target)
        got = batched.values(candidates)

        assert got == expected
        assert batched.queries == sequential.queries
        assert batched.trace == sequential.trace
        assert service_b.query_count == service_a.query_count

    def test_untargeted_values_and_speculate(self, cacheless_engine,
                                             attack_pair, rng):
        original, _ = attack_pair
        candidates = [
            original.perturbed(rng.uniform(-0.05, 0.05,
                                           size=original.pixels.shape))
            for _ in range(3)
        ]
        service_a = fresh_service(cacheless_engine)
        sequential = RetrievalObjective(service_a, original)
        expected = [sequential.value(c) for c in candidates]

        service_b = fresh_service(cacheless_engine)
        batched = RetrievalObjective(service_b, original)
        assert batched.values(candidates) == expected

        service_c = fresh_service(cacheless_engine)
        speculating = RetrievalObjective(service_c, original)
        speculated = speculating.speculate(candidates)
        assert speculated == expected
        assert speculating.queries == 1  # nothing committed yet
        assert speculating.trace == []
        speculating.commit(speculated[0])
        assert speculating.queries == 2
        assert speculating.trace == [expected[0]]
