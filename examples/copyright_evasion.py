#!/usr/bin/env python3
"""Copyright-evasion scenario from the paper's introduction.

"A video owner may check whether her/his videos are protected by
retrieving the top-k results ... the adversary can bypass such copyright
violation detection by publishing an adversarial example for a
copyrighted video that is not included in the retrieval results."

This example plays both roles:

* the *owner* queries the retrieval service with their copyrighted video
  and checks whether near-duplicates appear in the results;
* the *adversary* republishes the copyrighted video with a DUO
  perturbation targeted at an unrelated video, so the owner's check
  comes back clean.
"""

from repro.attacks import AttackConfig, build_attack
from repro.surrogate import steal_training_set, train_surrogate
from repro.training import build_victim_system
from repro.video import load_dataset


def owner_check(service, copyrighted, suspect, m=20) -> bool:
    """True when the suspect video surfaces the copyrighted one's ring.

    The owner queries with the *suspect upload* and flags it if the
    results look like the copyrighted video's own results (same ring of
    near-duplicates = same class here).
    """
    suspect_list = service.query(suspect, m=m)
    matches = sum(1 for entry in suspect_list if entry.label == copyrighted.label)
    return matches >= m // 4


def main() -> None:
    dataset = load_dataset(
        "ucf101", num_classes=20, train_videos=160, test_videos=20,
        height=24, width=24, num_frames=8, seed=10,
    )
    victim = build_victim_system(dataset, backbone="resnet18", loss="arcface",
                                 feature_dim=32, width=4, epochs=2, m=20,
                                 seed=11)

    # The copyrighted video is in the platform's gallery; the adversary
    # wants to republish it without tripping the similarity check.
    copyrighted = dataset.train[0]
    decoy_target = next(v for v in dataset.train if v.label != copyrighted.label)

    print("owner checks the verbatim re-upload:")
    flagged = owner_check(victim.service, copyrighted, copyrighted)
    print(f"  flagged as duplicate: {flagged}  (expected: True)")

    print("adversary steals a surrogate and crafts the evasion...")
    stolen = steal_training_set(victim.service, dataset.test,
                                victim.video_lookup, rounds=4, branch=3,
                                rng=12)
    surrogate = train_surrogate(stolen, backbone="c3d", feature_dim=32,
                                width=4, epochs=4, seed=13)
    attack = build_attack(
        AttackConfig(strategy="duo", k=int(0.4 * copyrighted.pixels.size),
                     n=6, tau=30, iterations=150, rounds=2, seed=14),
        service=victim.service, surrogate=surrogate)
    result = attack.run(copyrighted, decoy_target)

    print("owner checks the adversarial re-upload:")
    flagged = owner_check(victim.service, copyrighted, result.adversarial)
    print(f"  flagged as duplicate: {flagged}  (evasion succeeded: {not flagged})")
    stats = result.stats
    print(f"  perturbation: Spa={stats.spa}, PScore={stats.pscore:.3f}, "
          f"frames={stats.frames}, linf={stats.linf * 255:.0f}/255")


if __name__ == "__main__":
    main()
