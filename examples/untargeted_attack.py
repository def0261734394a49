#!/usr/bin/env python3
"""Untargeted DUO: make the retrieval system return anything *but* the truth.

The paper focuses on targeted attacks but notes (§I) that DUO "can be
easily extended to launch untargeted attacks as well".  This example runs
that extension: the attacker wants the victim's retrieval list for a
perturbed query to stop containing the videos it correctly returns for
the clean query (e.g. to hide a video from similarity search entirely).
"""

from repro.attacks import AttackConfig, RetrievalObjective, build_attack
from repro.surrogate import steal_training_set, train_surrogate
from repro.training import build_victim_system
from repro.video import load_dataset


def main() -> None:
    dataset = load_dataset(
        "ucf101", num_classes=40, train_videos=320, test_videos=40,
        height=24, width=24, num_frames=8, seed=40,
    )
    victim = build_victim_system(dataset, backbone="resnet18", loss="arcface",
                                 feature_dim=32, width=4, epochs=2, m=20,
                                 seed=41)
    stolen = steal_training_set(victim.service, dataset.test,
                                victim.video_lookup, rounds=4, branch=3,
                                rng=42)
    surrogate = train_surrogate(stolen, backbone="c3d", feature_dim=32,
                                width=4, epochs=4, seed=43)

    original = dataset.train[5]
    clean_list = victim.service.query(original)
    same_class = sum(1 for e in clean_list if e.label == original.label)
    print(f"clean query: {same_class}/{len(clean_list)} returned videos share "
          f"the true class {original.label}")

    attack = build_attack(
        AttackConfig(strategy="duo", k=int(0.4 * original.pixels.size), n=6,
                     tau=30, iterations=150, rounds=1, seed=44),
        service=victim.service, surrogate=surrogate)
    # No target video: DUO minimizes the untargeted objective instead.
    result = attack.run(original, None)
    escape_rate = RetrievalObjective(
        victim.service, original).escape_rate(result.adversarial)

    adv_list = victim.service.query(result.adversarial)
    same_class_adv = sum(1 for e in adv_list if e.label == original.label)
    print(f"adversarial query: {same_class_adv}/{len(adv_list)} share the "
          f"true class")
    print(f"escape rate (original list items no longer returned): "
          f"{escape_rate:.2f}")
    stats = result.stats
    print(f"perturbation: Spa={stats.spa}, PScore={stats.pscore:.2f}, "
          f"frames={stats.frames}, queries={result.queries}")


if __name__ == "__main__":
    main()
