"""Figure 5: the objective ``T`` vs number of queries in SparseQuery.

Returns the (down-sampled) per-query traces of ``T`` for DUO and the
query-based baselines; a decreasing ``T`` shows the query phase
rectifying ``v_adv``.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import fixtures
from repro.experiments.attack_zoo import attack_factory
from repro.experiments.config import DEFAULT_SCALE, ExperimentScale
from repro.experiments.protocol import attack_pairs
from repro.experiments.report import TableResult

CURVE_ATTACKS = ("duo-c3d", "duo-res18", "vanilla", "heu-sim")


def run(scale: ExperimentScale = DEFAULT_SCALE,
        datasets: tuple[str, ...] = ("ucf101", "hmdb51"),
        attacks: tuple[str, ...] = CURVE_ATTACKS,
        victim_backbone: str = "tpn", victim_loss: str = "arcface",
        checkpoints: int = 6) -> TableResult:
    """Run each attack on one pair and sample its ``T`` trace.

    ``checkpoints`` evenly spaced points of each trace become columns, so
    the table reads like the figure's series.
    """
    from repro.experiments.plotting import ascii_line_chart

    header_points = [f"T@{i}" for i in range(checkpoints)]
    table = TableResult(
        "Figure 5 — objective T vs queries (per attack)",
        ["dataset", "attack", "queries", *header_points],
    )
    for dataset_name in datasets:
        curves: dict[str, list[float]] = {}
        dataset = fixtures.dataset_for(dataset_name, scale)
        victim = fixtures.victim_for(dataset, victim_backbone, victim_loss,
                                     scale)
        pairs = attack_pairs(dataset, scale)[:1]
        k = scale.k_for(pairs[0][0].pixels.size)
        surrogates = {
            "c3d": fixtures.surrogate_for(dataset, victim, "c3d", scale),
            "resnet18": fixtures.surrogate_for(dataset, victim, "resnet18",
                                               scale),
        }
        for attack_name in attacks:
            factory = attack_factory(attack_name, victim, surrogates, scale, k)
            result = factory(0).run(*pairs[0])
            trace = result.trace or [float("nan")]
            # Running minimum, as the figure plots the achieved objective.
            running = np.minimum.accumulate(np.asarray(trace, dtype=float))
            positions = np.linspace(0, len(running) - 1, checkpoints)
            sampled = [float(running[int(round(p))]) for p in positions]
            table.add_row(dataset_name, attack_name, len(running), *sampled)
            curves[attack_name] = list(running)
        table.appendix.append(
            ascii_line_chart(curves, title=f"T vs queries — {dataset_name}",
                             y_label="objective T")
        )
    table.notes.append("columns are evenly spaced checkpoints of min-so-far T")
    return table
