"""End-to-end pipeline tests: victim → stealing → surrogate → DUO → metrics."""

import numpy as np

from repro.attacks import AttackConfig, build_attack
from repro.attacks.objective import RetrievalObjective
from repro.metrics import ap_at_m, ndcg_similarity
from repro.surrogate import steal_training_set, train_surrogate
from repro.training import build_victim_system
from repro.video import load_dataset


def _duo(surrogate, service, k, n, tau, iterations, theta_steps, seed):
    """A one-loop DUO attack (transfer sweep + SimBA rectification)."""
    return build_attack(
        AttackConfig(strategy="duo", k=k, n=n, tau=tau,
                     iterations=iterations, rounds=1, seed=seed,
                     sampler={"outer_iters": 1, "theta_steps": theta_steps}),
        service=service, surrogate=surrogate)


def test_full_pipeline_runs_and_reports(tmp_path):
    dataset = load_dataset("ucf101", num_classes=6, train_videos=30,
                           test_videos=10, height=16, width=16,
                           num_frames=8, seed=33)
    victim = build_victim_system(dataset, backbone="resnet18", loss="arcface",
                                 feature_dim=16, width=2, epochs=1, m=10,
                                 seed=3)
    stolen = steal_training_set(victim.service, dataset.test,
                                victim.video_lookup, rounds=2, branch=2,
                                rng=4)
    surrogate = train_surrogate(stolen, backbone="c3d", feature_dim=16,
                                width=2, epochs=1, seed=5)

    original, target = dataset.sample_attack_pairs(1, rng_or_seed=6)[0]
    attack = _duo(surrogate, victim.service,
                  k=int(original.pixels.size * 0.3), n=4, tau=30,
                  iterations=15, theta_steps=3, seed=7)
    result = attack.run(original, target)

    target_ids = victim.service.query(target).ids
    adversarial_ids = victim.service.query(result.adversarial).ids
    ap = ap_at_m(adversarial_ids, target_ids)

    # Structural invariants of a complete run.
    assert 0.0 <= ap <= 1.0
    assert result.queries >= 3
    assert result.stats.spa > 0
    assert result.stats.frames <= 4
    assert result.adversarial.pixels.min() >= 0.0
    assert result.adversarial.pixels.max() <= 1.0
    assert np.isfinite(result.trace).all()


def test_objective_decrease_tracks_list_movement(tiny_victim, tiny_surrogate,
                                                 attack_pair):
    """When T decreases, the adversarial list moved toward the target's."""
    original, target = attack_pair
    objective = RetrievalObjective(tiny_victim.service, original, target)
    baseline_similarity = ndcg_similarity(
        tiny_victim.service.query(original).ids, objective.target_ids
    )
    attack = _duo(tiny_surrogate, tiny_victim.service, k=150, n=4, tau=40,
                  iterations=20, theta_steps=3, seed=8)
    result = attack.run(original, target)
    final_similarity = ndcg_similarity(
        tiny_victim.service.query(result.adversarial).ids,
        objective.target_ids,
    )
    trace = result.trace
    if trace and min(trace) < trace[0]:
        assert final_similarity >= baseline_similarity - 1e-9


def test_attack_does_not_mutate_original(tiny_victim, tiny_surrogate,
                                         attack_pair):
    original, target = attack_pair
    pixels_before = original.pixels.copy()
    attack = _duo(tiny_surrogate, tiny_victim.service, k=60, n=2, tau=30,
                  iterations=5, theta_steps=2, seed=9)
    attack.run(original, target)
    np.testing.assert_array_equal(original.pixels, pixels_before)


def test_sharded_and_degraded_retrieval_consistency(tiny_victim,
                                                    tiny_dataset):
    """Failure injection: retrieval stays usable when one shard dies."""
    query = tiny_dataset.test[0]
    full = tiny_victim.engine.retrieve(query, m=6)
    node = tiny_victim.engine.gallery.nodes[0]
    dead_ids = {entry.video_id for entry in
                node.index.search(np.zeros(tiny_victim.engine.extractor
                                           .feature_dim), k=10_000)}
    node.take_down()
    try:
        degraded = tiny_victim.engine.retrieve(query, m=6)
        # Degraded results exclude exactly the dead shard's content and
        # otherwise preserve the full ranking's order.
        assert not (set(degraded.ids) & dead_ids)
        expected = [vid for vid in full.ids if vid not in dead_ids]
        assert degraded.ids[: len(expected)] == expected[: len(degraded.ids)]
    finally:
        node.bring_up()
