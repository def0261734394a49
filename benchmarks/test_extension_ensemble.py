"""Extension bench: the ensemble defense proposed in the paper's §V-D.

Compares DUO's targeted AP@m against a single victim vs an ensemble of
independently trained backbones fused by reciprocal rank — the paper's
conjecture is that the ensemble is harder to steer.
"""

import numpy as np

from repro.attacks import AttackConfig, build_attack
from repro.defenses import EnsembleEngine
from repro.experiments import fixtures
from repro.experiments.protocol import attack_pairs
from repro.experiments.report import TableResult
from repro.metrics.ranking import ap_at_m
from repro.retrieval import RetrievalService

from benchmarks.common import BENCH_SCALE, run_once, save_table


def _run() -> TableResult:
    scale = BENCH_SCALE
    table = TableResult(
        "Extension — ensemble defense (ucf101)",
        ["system", "AP@m (attack)", "AP@m (w/o)", "queries"],
    )
    dataset = fixtures.dataset_for("ucf101", scale)
    single = fixtures.victim_for(dataset, "resnet18", "arcface", scale)
    second = fixtures.victim_for(dataset, "tpn", "arcface", scale)
    surrogate = fixtures.surrogate_for(dataset, single, "c3d", scale)
    pairs = attack_pairs(dataset, scale)
    k = scale.k_for(pairs[0][0].pixels.size)

    systems = {
        "single (resnet18)": single.service,
        "ensemble (resnet18+tpn)": RetrievalService.build(
            EnsembleEngine([single.engine, second.engine]), m=scale.m),
    }
    for name, service in systems.items():
        aps, baselines, queries = [], [], []
        for index, (original, target) in enumerate(pairs):
            target_ids = service.query(target).ids
            baselines.append(ap_at_m(service.query(original).ids, target_ids))
            attack = build_attack(
                AttackConfig(
                    strategy="duo", k=k, n=scale.n, tau=scale.tau,
                    iterations=scale.iter_num_q, rounds=scale.iter_num_h,
                    seed=300 + index,
                    sampler={"outer_iters": scale.transfer_outer_iters,
                             "theta_steps": scale.theta_steps}),
                service=service, surrogate=surrogate)
            result = attack.run(original, target)
            aps.append(ap_at_m(service.query(result.adversarial).ids,
                               target_ids))
            queries.append(result.queries)
        table.add_row(name, float(np.mean(aps)), float(np.mean(baselines)),
                      int(np.mean(queries)))
    return table


def test_extension_ensemble(benchmark):
    table = run_once(benchmark, _run)
    save_table("extension_ensemble", table)
    assert len(table.rows) == 2
