"""Extension bench: the untargeted DUO variant (paper §I).

Measures the escape rate — the fraction of the original retrieval list
no longer returned for the adversarial query — which is the untargeted
analogue of AP@m.
"""

import numpy as np

from repro.attacks import AttackConfig, RetrievalObjective, build_attack
from repro.experiments import fixtures
from repro.experiments.protocol import attack_pairs
from repro.experiments.report import TableResult

from benchmarks.common import BENCH_SCALE, QUICK, run_once, save_table


def _run() -> TableResult:
    scale = BENCH_SCALE
    table = TableResult(
        "Extension — untargeted DUO escape rates",
        ["dataset", "escape_rate", "Spa", "queries"],
    )
    for dataset_name in ("ucf101", "hmdb51"):
        dataset = fixtures.dataset_for(dataset_name, scale)
        victim = fixtures.victim_for(dataset, "resnet18", "arcface", scale)
        surrogate = fixtures.surrogate_for(dataset, victim, "c3d", scale)
        pairs = attack_pairs(dataset, scale)
        k = scale.k_for(pairs[0][0].pixels.size)
        escapes, spas, queries = [], [], []
        for index, (original, _) in enumerate(pairs):
            attack = build_attack(
                AttackConfig(
                    strategy="duo", k=k, n=scale.n, tau=scale.tau,
                    iterations=scale.iter_num_q, rounds=1, seed=200 + index,
                    sampler={"outer_iters": scale.transfer_outer_iters,
                             "theta_steps": scale.theta_steps}),
                service=victim.service, surrogate=surrogate)
            result = attack.run(original, None)
            objective = RetrievalObjective(victim.service, original)
            escapes.append(objective.escape_rate(result.adversarial))
            spas.append(result.stats.spa)
            queries.append(result.queries)
        table.add_row(dataset_name, float(np.mean(escapes)),
                      int(np.mean(spas)), int(np.mean(queries)))
    return table


def test_extension_untargeted(benchmark):
    table = run_once(benchmark, _run)
    save_table("extension_untargeted", table)
    rates = table.column("escape_rate")
    assert all(0.0 <= rate <= 1.0 for rate in rates)
    if not QUICK:
        # Untargeted is the easy direction: most of the list should move.
        assert max(rates) > 0.2
