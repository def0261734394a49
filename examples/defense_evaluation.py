#!/usr/bin/env python3
"""Defense evaluation: can feature squeezing / Noise2Self catch the AEs?

Reproduces the Section V-D workflow in miniature: calibrate both
list-stability detectors on clean queries at a 5% false-positive budget,
generate AEs with a dense attack (TIMI) and a sparse attack (DUO), and
compare detection rates — sparsification is what buys DUO its
stealthiness.
"""

from repro.attacks import AttackConfig, build_attack
from repro.defenses import (
    FeatureSqueezer,
    Noise2SelfDenoiser,
    SqueezeDetector,
    detection_rate,
)
from repro.surrogate import steal_training_set, train_surrogate
from repro.training import build_victim_system
from repro.video import load_dataset


def main() -> None:
    dataset = load_dataset(
        "ucf101", num_classes=20, train_videos=160, test_videos=24,
        height=24, width=24, num_frames=8, seed=20,
    )
    victim = build_victim_system(dataset, backbone="i3d", loss="arcface",
                                 feature_dim=32, width=4, epochs=2, m=20,
                                 seed=21)
    stolen = steal_training_set(victim.service, dataset.test,
                                victim.video_lookup, rounds=4, branch=3,
                                rng=22)
    surrogate = train_surrogate(stolen, backbone="c3d", feature_dim=32,
                                width=4, epochs=4, seed=23)

    print("calibrating detectors on clean queries (5% FPR budget)...")
    detectors = {
        "feature-squeezing": SqueezeDetector(victim.engine, FeatureSqueezer(),
                                             m=20),
        "noise2self": SqueezeDetector(victim.engine, Noise2SelfDenoiser(),
                                      m=20),
    }
    for name, detector in detectors.items():
        threshold = detector.fit(dataset.test[:12], false_positive_rate=0.05)
        print(f"  {name}: threshold={threshold:.3f}")

    pairs = dataset.sample_attack_pairs(3, rng_or_seed=24)
    k = int(0.4 * pairs[0][0].pixels.size)
    attacks = {
        "timi (dense)": lambda i: build_attack(
            AttackConfig(strategy="timi", tau=30, iterations=10),
            surrogate=surrogate),
        "vanilla (sparse)": lambda i: build_attack(
            AttackConfig(strategy="vanilla", k=k, n=6, tau=30,
                         iterations=150, seed=30 + i),
            service=victim.service),
        "duo (sparse)": lambda i: build_attack(
            AttackConfig(strategy="duo", k=k, n=6, tau=30, iterations=100,
                         rounds=1, seed=40 + i),
            service=victim.service, surrogate=surrogate),
    }

    print(f"{'attack':18s} {'squeezing':>10s} {'noise2self':>11s}  spa")
    for attack_name, factory in attacks.items():
        adversarials, spas = [], []
        for index, (original, target) in enumerate(pairs):
            result = factory(index).run(original, target)
            adversarials.append(result.adversarial)
            spas.append(result.stats.spa)
        rates = {
            name: 100.0 * detection_rate(detector, adversarials)
            for name, detector in detectors.items()
        }
        print(f"{attack_name:18s} {rates['feature-squeezing']:9.1f}% "
              f"{rates['noise2self']:10.1f}%  "
              f"{sum(spas) / len(spas):.0f}")


if __name__ == "__main__":
    main()
