"""Ablation bench: the DUO design choices DESIGN.md §7 calls out.

Toggles, one at a time, on a single (dataset, victim) cell:

* ``target_init``      — θ seeded from the target difference vs zeros;
* ``tie_rule``         — Eq. 3 "move" vs Algorithm-2 "stay" acceptance;
* ``block_size``       — √|support| direction blocks vs single-coordinate.
"""

import numpy as np

from repro.attacks import AttackConfig, build_attack
from repro.experiments import fixtures
from repro.experiments.protocol import attack_pairs, without_attack_ap
from repro.experiments.report import TableResult
from repro.metrics.ranking import ap_at_m

from benchmarks.common import BENCH_SCALE, run_once, save_table

#: ``(name, sampler overrides, feedback overrides)`` per variant.
VARIANTS = (
    ("full", {}, {}),
    ("no-target-init", {"target_init": False}, {}),
    ("tie-stay", {}, {"tie_rule": "stay"}),
    ("single-coordinate", {}, {"block_size": 1}),
)


def _run() -> TableResult:
    scale = BENCH_SCALE
    table = TableResult(
        "Ablation — DUO design choices (ucf101 / resnet18 victim)",
        ["variant", "AP@m", "Spa", "queries"],
    )
    dataset = fixtures.dataset_for("ucf101", scale)
    victim = fixtures.victim_for(dataset, "resnet18", "arcface", scale)
    surrogate = fixtures.surrogate_for(dataset, victim, "c3d", scale)
    pairs = attack_pairs(dataset, scale)
    k = scale.k_for(pairs[0][0].pixels.size)
    table.notes.append(
        f"w/o attack AP@m = {without_attack_ap(victim, pairs):.3f}"
    )

    for name, sampler, feedback in VARIANTS:
        aps, spas, queries = [], [], []
        for index, (original, target) in enumerate(pairs):
            attack = build_attack(
                AttackConfig(
                    strategy="duo", k=k, n=scale.n, tau=scale.tau,
                    iterations=scale.iter_num_q, rounds=scale.iter_num_h,
                    seed=100 + index, feedback=feedback,
                    sampler={"outer_iters": scale.transfer_outer_iters,
                             "theta_steps": scale.theta_steps, **sampler}),
                service=victim.service, surrogate=surrogate)
            result = attack.run(original, target)
            target_ids = victim.service.query(target).ids
            adv_ids = victim.service.query(result.adversarial).ids
            aps.append(ap_at_m(adv_ids, target_ids))
            spas.append(result.stats.spa)
            queries.append(result.queries)
        table.add_row(name, float(np.mean(aps)), int(np.mean(spas)),
                      int(np.mean(queries)))
    return table


def test_ablation_duo(benchmark):
    table = run_once(benchmark, _run)
    save_table("ablation_duo", table)
    assert "full" in table.column("variant")
