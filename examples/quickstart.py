#!/usr/bin/env python3
"""Quickstart: stand up a victim retrieval system and attack it with DUO.

Runs in well under a minute on a laptop CPU.  The flow mirrors the paper:

1. build a synthetic UCF101-style dataset and train a victim retrieval
   system (I3D-style backbone + ArcFace loss, gallery = train split);
2. steal a surrogate by crawling the victim's black-box query API;
3. pick an (original, target) pair of different action classes;
4. run DUO (SparseTransfer + SparseQuery) and report AP@m / Spa / PScore.
"""

from repro.attacks import AttackConfig, build_attack
from repro.metrics import ap_at_m, evaluate_map
from repro.surrogate import steal_training_set, train_surrogate
from repro.training import build_victim_system
from repro.video import load_dataset


def main() -> None:
    print("== 1. victim retrieval system ==")
    # Many visually confusable classes + a dense gallery put the system in
    # the paper's regime, where retrieval lists of different videos
    # overlap and respond to perturbations (see DESIGN.md §5).
    dataset = load_dataset(
        "ucf101", num_classes=40, train_videos=320, test_videos=40,
        height=24, width=24, num_frames=8, seed=0,
    )
    victim = build_victim_system(
        dataset, backbone="resnet18", loss="arcface",
        feature_dim=32, width=4, epochs=2, m=20, seed=1,
    )
    map_score = evaluate_map(victim.engine, dataset.test[:10], m=20)
    print(f"gallery size: {victim.engine.gallery_size}, "
          f"victim mAP: {map_score:.3f}")

    print("== 2. surrogate by model stealing ==")
    stolen = steal_training_set(
        victim.service, dataset.test, victim.video_lookup,
        rounds=4, branch=3, rng=2,
    )
    surrogate = train_surrogate(stolen, backbone="c3d", feature_dim=32,
                                width=4, epochs=4, seed=3)
    print(f"stolen rows: {len(stolen)} "
          f"({stolen.queries_spent} queries spent)")

    print("== 3 & 4. DUO over the evaluation pairs ==")
    # The paper averages over randomly drawn (original, target) pairs;
    # individual pairs vary a lot, so the demo follows the same protocol.
    pairs = dataset.sample_attack_pairs(3, rng_or_seed=4)
    total_values = pairs[0][0].pixels.size
    baseline_aps, attack_aps, last_result = [], [], None
    for index, (original, target) in enumerate(pairs):
        target_ids = victim.service.query(target).ids
        baseline_aps.append(
            ap_at_m(victim.service.query(original).ids, target_ids))
        attack = build_attack(
            AttackConfig(strategy="duo", k=int(0.4 * total_values), n=6,
                         tau=30, iterations=150, rounds=2, seed=5 + index),
            service=victim.service, surrogate=surrogate,
        )
        last_result = attack.run(original, target)
        adversarial_ids = victim.service.query(last_result.adversarial).ids
        attack_aps.append(ap_at_m(adversarial_ids, target_ids))
        print(f"pair {index}: {original.video_id} (class {original.label}) "
              f"→ {target.video_id} (class {target.label}): "
              f"AP@m {baseline_aps[-1]:.3f} → {attack_aps[-1]:.3f}")

    mean_baseline = sum(baseline_aps) / len(baseline_aps)
    mean_attack = sum(attack_aps) / len(attack_aps)
    stats = last_result.stats
    print(f"\nmean AP@m: {mean_baseline:.3f} (w/o attack) → "
          f"{mean_attack:.3f} (DUO)")
    print(f"last AE: Spa={stats.spa} of {total_values}, "
          f"PScore={stats.pscore:.3f} (8-bit), "
          f"frames={stats.frames}/{pairs[0][0].num_frames}, "
          f"linf={stats.linf * 255:.1f}/255, "
          f"queries={last_result.queries}")


if __name__ == "__main__":
    main()
