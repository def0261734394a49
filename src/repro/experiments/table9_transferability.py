"""Table IX: transferability of SparseTransfer-only AEs (ℓ2 vs ℓ∞).

The AEs are generated on the surrogate *without* any queries and
evaluated against each victim backbone — isolating the transfer
component.  TIMI rows are included as the dense-transfer reference.
"""

from __future__ import annotations

import numpy as np

from repro.attacks import AttackConfig, AttackReport, build_attack
from repro.attacks.duo import SparseTransfer
from repro.experiments import fixtures
from repro.experiments.config import DEFAULT_SCALE, ExperimentScale
from repro.experiments.protocol import attack_pairs
from repro.experiments.report import TableResult
from repro.metrics.perturbation import perturbation_summary
from repro.metrics.ranking import ap_at_m
from repro.models.registry import VICTIM_BACKBONES


def run(scale: ExperimentScale = DEFAULT_SCALE,
        dataset_name: str = "ucf101",
        victims: tuple[str, ...] = VICTIM_BACKBONES,
        surrogate_backbones: tuple[str, ...] = ("c3d", "resnet18"),
        constraints: tuple[str, ...] = ("l2", "linf"),
        victim_loss: str = "arcface") -> TableResult:
    """Generate transfer-only AEs once per surrogate and test all victims."""
    table = TableResult(
        "Table IX — SparseTransfer transferability (UCF101)",
        ["victim", "attack", "constraint", "AP@m", "Spa", "PScore"],
    )
    dataset = fixtures.dataset_for(dataset_name, scale)
    victims_built = {
        name: fixtures.victim_for(dataset, name, victim_loss, scale)
        for name in victims
    }
    reference = victims_built[victims[0]]
    pairs = attack_pairs(dataset, scale)
    k = scale.k_for(pairs[0][0].pixels.size)
    surrogates = {
        name: fixtures.surrogate_for(dataset, reference, name, scale)
        for name in surrogate_backbones
    }

    # TIMI reference rows (dense transfer).
    for surrogate_name, surrogate in surrogates.items():
        attack = build_attack(
            AttackConfig(strategy="timi", tau=scale.tau,
                         iterations=scale.timi_iterations),
            surrogate=surrogate)
        adversarials = [attack.run(v, vt) for v, vt in pairs]
        for victim_name, victim in victims_built.items():
            aps, spas, pscores = _evaluate(adversarials, victim, pairs)
            table.add_row(victim_name, f"timi-{surrogate_name}", "linf",
                          aps, spas, pscores)

    # DUO transfer-only rows under both constraints.
    for constraint in constraints:
        for surrogate_name, surrogate in surrogates.items():
            transfer = SparseTransfer(
                surrogate, k=k, n=scale.n, tau=scale.tau,
                constraint=constraint,
                outer_iters=scale.transfer_outer_iters,
                theta_steps=scale.theta_steps,
            )
            adversarials = [_transfer_only(transfer, v, vt)
                            for v, vt in pairs]
            for victim_name, victim in victims_built.items():
                aps, spas, pscores = _evaluate(adversarials, victim, pairs)
                table.add_row(victim_name, f"duo-{surrogate_name}", constraint,
                              aps, spas, pscores)
    table.notes.append("transfer-only: zero queries; DUO Spa ≪ TIMI Spa")
    return table


def _transfer_only(transfer: SparseTransfer, original,
                   target) -> AttackReport:
    """One SparseTransfer AE for ``(v, v_t)``: zero queries."""
    adversarial = original.perturbed(transfer.run(original, target)
                                     .perturbation())
    return AttackReport(adversarial=adversarial,
                        perturbation=adversarial.pixels - original.pixels)


def _evaluate(adversarials, victim, pairs):
    aps, spas, pscores = [], [], []
    for result, (original, target) in zip(adversarials, pairs):
        target_ids = victim.service.query(target).ids
        adv_ids = victim.service.query(result.adversarial).ids
        stats = perturbation_summary(result.perturbation)
        aps.append(ap_at_m(adv_ids, target_ids))
        spas.append(stats.spa)
        pscores.append(stats.pscore)
    return float(np.mean(aps)), int(np.mean(spas)), float(np.mean(pscores))
