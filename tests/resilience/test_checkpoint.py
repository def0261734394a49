"""Checkpoint/resume: bit-identical recovery from mid-attack outages."""

import numpy as np
import pytest

from repro.attacks.base import clip_video_range
from repro.attacks.duo.priors import TransferPriors
from repro.attacks.objective import RetrievalObjective
from repro.attacks.search import nes_search, simba_search
from repro.errors import RetrievalUnavailable
from repro.resilience import (
    AttackCheckpoint,
    CheckpointSession,
    FaultPlan,
    ResilienceConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.checkpoint import CHECKPOINT_VERSION

from tests.resilience.conftest import build_service, make_videos


def raise_config():
    return ResilienceConfig(replication=1, retry=None, breaker=None,
                            on_data_loss="raise")


def make_priors(shape, seed=0, k=40, frames=2):
    rng = np.random.default_rng(seed)
    pixel_mask = np.zeros(shape)
    flat = rng.choice(pixel_mask.size, size=k, replace=False)
    pixel_mask.reshape(-1)[flat] = 1.0
    frame_mask = np.zeros(shape[0])
    frame_mask[:frames] = 1.0
    theta = rng.uniform(0.01, 30.0 / 255.0, size=shape) * \
        rng.choice((-1.0, 1.0), size=shape)
    return TransferPriors(pixel_mask, frame_mask, theta)


def sparse_query(original, priors, objective, iterations, rng,
                 checkpoint_path=None):
    """``simba_search`` with the arguments DUO's query stage passes it."""
    return simba_search(
        original, objective, priors.support(), tau=30 / 255.0,
        iterations=iterations, rng=rng,
        initial=clip_video_range(original.pixels, priors.perturbation()),
        checkpoint_path=checkpoint_path, metric_prefix="attack.duo.query",
        checkpoint_algo="sparse_query", project_initial=False)


def run_until_complete(fn, path):
    """Keep re-invoking ``fn`` across outages; return (result, failures)."""
    failures = 0
    while True:
        try:
            return fn(), failures
        except RetrievalUnavailable:
            failures += 1
            assert path.exists(), "failure must leave a checkpoint behind"
            assert failures < 50, "attack never escaped the outage"


class TestPrimitives:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        checkpoint = AttackCheckpoint(
            algo="simba", iteration=7,
            rng_state=np.random.default_rng(0).bit_generator.state,
            service_query_count=12, objective_queries=12,
            objective_trace_len=10,
            payload={"perturbation": np.ones(3), "trace": [1.0, 2.0]},
        )
        save_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.algo == "simba"
        assert loaded.iteration == 7
        assert loaded.version == CHECKPOINT_VERSION
        np.testing.assert_array_equal(loaded.payload["perturbation"],
                                      np.ones(3))

    def test_load_missing_returns_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.pkl") is None

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        checkpoint = AttackCheckpoint(
            algo="simba", iteration=0, rng_state={},
            service_query_count=None, objective_queries=None,
            objective_trace_len=None, version=CHECKPOINT_VERSION + 1)
        save_checkpoint(path, checkpoint)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_algo_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        rng = np.random.default_rng(0)
        session = CheckpointSession(path, "simba", None, rng)
        session.mark(0)
        session.persist()
        other = CheckpointSession(path, "nes", None, rng)
        with pytest.raises(ValueError):
            other.resume()

    def test_disabled_session_is_noop(self):
        session = CheckpointSession(None, "simba", None,
                                    np.random.default_rng(0))
        assert not session.enabled
        session.mark(0, anything=[1, 2])
        session.persist()
        assert session.resume() is None
        session.complete()

    def test_mark_copies_mutable_payload(self, tmp_path):
        rng = np.random.default_rng(0)
        session = CheckpointSession(tmp_path / "c.pkl", "simba", None, rng)
        trace = [1.0]
        session.mark(3, trace=trace)
        trace.append(2.0)
        session.persist()
        resumed = CheckpointSession(tmp_path / "c.pkl", "simba", None,
                                    rng).resume()
        assert resumed["trace"] == [1.0]
        assert resumed["iteration"] == 3


class FaultedRun:
    """Twin fault-free / faulted setups over identical galleries."""

    def __init__(self, outage, num_nodes=2, seed=0):
        self.original, self.target = make_videos(2, seed=99)
        self.services = {}
        self.objectives = {}
        for name in ("clean", "faulted"):
            service = build_service(num_nodes=num_nodes,
                                    resilience=raise_config(), seed=seed)
            self.services[name] = service
            self.objectives[name] = RetrievalObjective(
                service, self.original, self.target)
        self.plan = FaultPlan(seed=1).outage("node-0", *outage)
        self.gallery = self.services["faulted"].engine.gallery


class TestSparseQueryResume:
    def test_bit_identical_after_outage(self, tmp_path):
        setup = FaultedRun(outage=(5, 9))
        priors = make_priors(setup.original.pixels.shape, seed=4)
        path = tmp_path / "sparse.pkl"

        clean = sparse_query(setup.original, priors,
                             setup.objectives["clean"], 8,
                             np.random.default_rng(0))
        clean_adv, clean_trace = clean.adversarial, clean.trace

        rng = np.random.default_rng(0)
        with setup.plan.install(setup.gallery):
            result, failures = run_until_complete(
                lambda: sparse_query(setup.original, priors,
                                     setup.objectives["faulted"], 8, rng,
                                     checkpoint_path=path),
                path)
        adversarial, trace = result.adversarial, result.trace

        assert failures >= 1, "the outage never interrupted the attack"
        assert trace == clean_trace
        np.testing.assert_array_equal(adversarial.pixels, clean_adv.pixels)
        assert setup.objectives["faulted"].queries == \
            setup.objectives["clean"].queries
        assert setup.services["faulted"].query_count == \
            setup.services["clean"].query_count
        assert not path.exists(), "completion must delete the checkpoint"


class TestSimbaResume:
    def test_bit_identical_after_outage(self, tmp_path):
        setup = FaultedRun(outage=(6, 10))
        rng = np.random.default_rng(7)
        support = rng.random(setup.original.pixels.shape) < 0.1
        path = tmp_path / "simba.pkl"

        clean = simba_search(
            setup.original, setup.objectives["clean"], support,
            tau=0.1, iterations=8, rng=0)
        clean_adv, clean_phi, clean_trace = \
            clean.adversarial, clean.perturbation, clean.trace

        with setup.plan.install(setup.gallery):
            result, failures = run_until_complete(
                lambda: simba_search(
                    setup.original, setup.objectives["faulted"], support,
                    tau=0.1, iterations=8, rng=0, checkpoint_path=path),
                path)
        adversarial, phi, trace = \
            result.adversarial, result.perturbation, result.trace

        assert failures >= 1
        assert trace == clean_trace
        np.testing.assert_array_equal(phi, clean_phi)
        np.testing.assert_array_equal(adversarial.pixels, clean_adv.pixels)
        assert setup.services["faulted"].query_count == \
            setup.services["clean"].query_count
        assert not path.exists()


class TestNesResume:
    def test_bit_identical_after_outage(self, tmp_path):
        setup = FaultedRun(outage=(7, 12))
        rng = np.random.default_rng(7)
        support = rng.random(setup.original.pixels.shape) < 0.1
        path = tmp_path / "nes.pkl"

        clean = nes_search(
            setup.original, setup.objectives["clean"], support,
            tau=0.1, iterations=4, samples=2, rng=0)
        clean_adv, clean_phi, clean_trace = \
            clean.adversarial, clean.perturbation, clean.trace

        with setup.plan.install(setup.gallery):
            result, failures = run_until_complete(
                lambda: nes_search(
                    setup.original, setup.objectives["faulted"], support,
                    tau=0.1, iterations=4, samples=2, rng=0,
                    checkpoint_path=path),
                path)
        adversarial, phi, trace = \
            result.adversarial, result.perturbation, result.trace

        assert failures >= 1
        assert trace == clean_trace
        np.testing.assert_array_equal(phi, clean_phi)
        np.testing.assert_array_equal(adversarial.pixels, clean_adv.pixels)
        assert setup.services["faulted"].query_count == \
            setup.services["clean"].query_count
        assert not path.exists()
