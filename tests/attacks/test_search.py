"""Tests for the SimBA and NES black-box search primitives."""

import numpy as np
import pytest

from repro.attacks.search import default_block_size, nes_search, simba_search
from repro.video import Video
from tests.attacks.test_objective import FakeService, make_video
from repro.attacks.objective import RetrievalObjective


class CountingObjective:
    """A synthetic objective: T = distance of perturbation to a target φ*.

    Gives the searches a smooth signal without any model, so their
    mechanics (support restriction, budgets, acceptance) can be tested
    deterministically.
    """

    def __init__(self, original, target_phi):
        self.original = original
        self.target_phi = target_phi
        self.queries = 0
        self.trace = []

    def value(self, candidate):
        self.queries += 1
        phi = candidate.pixels - self.original.pixels
        value = float(np.abs(phi - self.target_phi).sum())
        self.trace.append(value)
        return value

    def values(self, candidates):
        return [self.value(candidate) for candidate in candidates]

    def speculate(self, candidates):
        return []  # every candidate is sent as a real ``value`` query


@pytest.fixture
def original(rng):
    return Video(np.full((2, 4, 4, 3), 0.5), video_id="orig")


@pytest.fixture
def support(original):
    support = np.zeros(original.pixels.shape, dtype=bool)
    support[0] = True  # only frame 0 may be perturbed
    return support


class TestSimbaSearch:
    def test_respects_support(self, original, support, rng):
        target_phi = np.full(original.pixels.shape, 0.05)
        objective = CountingObjective(original, target_phi)
        perturbation = simba_search(
            original, objective, support, tau=0.1, iterations=30, rng=rng,
        ).perturbation
        assert np.all(perturbation[1] == 0.0)

    def test_respects_tau(self, original, support, rng):
        objective = CountingObjective(original,
                                      np.full(original.pixels.shape, 1.0))
        perturbation = simba_search(
            original, objective, support, tau=0.05, iterations=30, rng=rng,
        ).perturbation
        assert np.abs(perturbation).max() <= 0.05 + 1e-12

    def test_decreases_smooth_objective(self, original, support, rng):
        target_phi = np.zeros(original.pixels.shape)
        target_phi[0] = 0.08
        objective = CountingObjective(original, target_phi)
        trace = simba_search(
            original, objective, support, tau=0.1, iterations=60,
            epsilon=0.08, rng=rng, tie_rule="stay",
        ).trace
        assert trace[-1] < trace[0]

    def test_empty_support_no_queries_after_baseline(self, original, rng):
        objective = CountingObjective(original,
                                      np.zeros(original.pixels.shape))
        report = simba_search(
            original, objective, np.zeros(original.pixels.shape, dtype=bool),
            tau=0.1, iterations=10, rng=rng,
        )
        perturbation, trace = report.perturbation, report.trace
        assert np.all(perturbation == 0.0)
        assert len(trace) == 1

    def test_stay_rule_monotone_best(self, original, support, rng):
        objective = CountingObjective(original,
                                      rng.normal(size=original.pixels.shape) * 0.05)
        trace = simba_search(
            original, objective, support, tau=0.1, iterations=40, rng=rng,
            tie_rule="stay",
        ).trace
        best = np.minimum.accumulate(trace)
        assert best[-1] <= best[0]

    def test_initial_perturbation_used(self, original, support, rng):
        initial = np.zeros(original.pixels.shape)
        initial[0, 0, 0, 0] = 0.07
        objective = CountingObjective(original, initial)
        report = simba_search(
            original, objective, support, tau=0.1, iterations=0,
            initial=initial, rng=rng,
        )
        np.testing.assert_allclose(report.perturbation, initial)
        assert report.trace[0] == pytest.approx(0.0)

    def test_block_size_one_single_coordinate_moves(self, original, support, rng):
        objective = CountingObjective(original,
                                      np.zeros(original.pixels.shape))
        perturbation = simba_search(
            original, objective, support, tau=0.1, iterations=1,
            block_size=1, rng=rng, tie_rule="stay",
        ).perturbation
        assert (np.abs(perturbation) > 0).sum() <= 1


class TestNesSearch:
    def test_respects_support_and_tau(self, original, support, rng):
        objective = CountingObjective(original,
                                      np.full(original.pixels.shape, 1.0))
        perturbation = nes_search(
            original, objective, support, tau=0.06, iterations=5, samples=2,
            rng=rng,
        ).perturbation
        assert np.all(perturbation[1] == 0.0)
        assert np.abs(perturbation).max() <= 0.06 + 1e-12

    def test_query_cost_accounting(self, original, support, rng):
        objective = CountingObjective(original,
                                      np.zeros(original.pixels.shape))
        nes_search(original, objective, support, tau=0.1, iterations=3,
                   samples=2, rng=rng)
        # 1 baseline + per-iteration (2·samples probes + 1 evaluation)
        assert objective.queries == 1 + 3 * (2 * 2 + 1)

    def test_improves_smooth_objective(self, original, support, rng):
        target_phi = np.zeros(original.pixels.shape)
        target_phi[0] = 0.05
        objective = CountingObjective(original, target_phi)
        report = nes_search(
            original, objective, support, tau=0.06, iterations=10,
            samples=4, sigma=0.02, rng=rng,
        )
        best_perturbation, trace = report.perturbation, report.trace
        final = float(np.abs(best_perturbation - target_phi).sum())
        assert final < trace[0]


class TestDefaultBlockSize:
    def test_sqrt_scaling(self):
        assert default_block_size(100) == 10
        assert default_block_size(1) == 1
        assert default_block_size(0) == 1
