"""Shared attack-evaluation protocol (Section V-A).

"We randomly choose ten pairs of two videos from the training dataset:
one as the original video and the other as the target video.  The
experimental results ... are the average from all experiments on one of
the ten pairs."  The scaled protocol averages over ``scale.pairs`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.attacks.base import Attack
from repro.attacks.report import AttackReport
from repro.experiments.config import ExperimentScale
from repro.metrics.perturbation import perturbation_summary
from repro.metrics.ranking import ap_at_m
from repro.training.victim import VictimSystem
from repro.video.datasets import SyntheticVideoDataset
from repro.video.types import Video

#: Builds a fresh attack for pair index ``i`` (so per-pair rngs differ).
AttackFactory = Callable[[int], Attack]


@dataclass
class AttackOutcome:
    """Averages over the evaluation pairs, Table-II style."""

    ap_at_m: float
    spa: float
    pscore: float
    queries: float
    per_pair_ap: list[float] = field(default_factory=list)
    results: list[AttackReport] = field(default_factory=list)


def attack_pairs(dataset: SyntheticVideoDataset,
                 scale: ExperimentScale) -> list[tuple[Video, Video]]:
    """The evaluation pairs for a dataset at this scale (deterministic)."""
    return dataset.sample_attack_pairs(scale.pairs, rng_or_seed=scale.seed)


def without_attack_ap(victim: VictimSystem,
                      pairs: list[tuple[Video, Video]]) -> float:
    """Mean AP@m between ``R^m(v)`` and ``R^m(v_t)`` — the "w/o attack" row."""
    values = []
    for original, target in pairs:
        original_ids = victim.service.query(original).ids
        target_ids = victim.service.query(target).ids
        values.append(ap_at_m(original_ids, target_ids))
    return float(np.mean(values))


def evaluate_attack(factory: AttackFactory, victim: VictimSystem,
                    pairs: list[tuple[Video, Video]],
                    keep_results: bool = False) -> AttackOutcome:
    """Run an attack on every pair and average the paper's metrics."""
    aps, spas, pscores, queries = [], [], [], []
    per_pair: list[float] = []
    results: list[AttackReport] = []
    for index, (original, target) in enumerate(pairs):
        target_ids = victim.service.query(target).ids
        attack = factory(index)
        result = attack.run(original, target)
        adversarial_ids = victim.service.query(result.adversarial).ids
        ap = ap_at_m(adversarial_ids, target_ids)
        stats = perturbation_summary(result.perturbation)
        aps.append(ap)
        per_pair.append(ap)
        spas.append(stats.spa)
        pscores.append(stats.pscore)
        queries.append(result.queries)
        if keep_results:
            results.append(result)
    return AttackOutcome(
        ap_at_m=float(np.mean(aps)),
        spa=float(np.mean(spas)),
        pscore=float(np.mean(pscores)),
        queries=float(np.mean(queries)),
        per_pair_ap=per_pair,
        results=results,
    )
