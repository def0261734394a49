"""Run the attack-strategy grid against the deployed-system defenses.

Every registered {sampler × basis × feedback} composition from
``repro.attacks.registry`` is launched on the tiny qa world with a hard
query budget, behind the same edge stack a deployed victim would run:

* :class:`~repro.defenses.stateful.StatefulQueryDetector` fingerprints
  every query and flags accounts issuing near-duplicate streams;
* :class:`~repro.serving.admission.AdmissionController` applies the
  tenant's token-bucket rate limit and per-tenant query budget on a
  virtual arrival clock.

For each cell we record whether the attack stayed under its budget,
whether the retrieval objective actually improved, whether the detector
flagged the attacking account, and how many queries the rate limiter /
tenant budget would have bounced.  ``duo-query`` is skipped (it needs
externally supplied transfer priors); everything else runs, including
the post-redesign compositions ``rl-sparse``, ``lowrank``, and ``qair``.

Usage::

    PYTHONPATH=src python benchmarks/bench_attack_grid.py           # full
    PYTHONPATH=src python benchmarks/bench_attack_grid.py --smoke   # CI

A full run that passes writes ``BENCH_attacks.json`` at the repo root
(CI uploads every ``BENCH_*.json``); ``--smoke`` shrinks the budgets so
the grid finishes in seconds and only prints, never overwriting the
recorded baseline.  The gate: every cell must finish under budget
with a conserved query ledger, and at least three of the new
compositions must complete end-to-end.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from common import finish  # noqa: E402
from repro.attacks.config import AttackConfig  # noqa: E402
from repro.attacks.registry import ATTACK_STRATEGIES, build_attack  # noqa: E402
from repro.defenses.stateful import StatefulQueryDetector  # noqa: E402
from repro.qa.invariants import check_budget_conservation  # noqa: E402
from repro.qa.world import build_world, tiny_extractor  # noqa: E402
from repro.serving.admission import AdmissionController  # noqa: E402
from repro.serving.config import ServingConfig, TenantPolicy  # noqa: E402

#: Compositions introduced by the strategy redesign (the grid gate
#: requires at least three of them to run end-to-end).
NEW_COMPOSITIONS = ("rl-sparse", "lowrank", "qair")

#: Needs priors injected via ``config.sampler``; not grid-runnable.
SKIPPED = ("duo-query",)

#: World seed; feedback iterations and hard query budget per cell (full
#: run, ``--smoke``).
SEED = 101
ITERATIONS, SMOKE_ITERATIONS = 60, 6
BUDGET, SMOKE_BUDGET = 120, 30


class GatedService:
    """A retrieval service behind the detector + admission controller.

    Forwards every query to the wrapped service while feeding the
    stateful detector and charging the tenant's admission ledger on a
    virtual arrival clock.  Rejections are recorded, not enforced — the
    bench measures how a deployed edge *would have* treated the attack
    stream without perturbing the attack's own accounting.
    """

    def __init__(self, service, detector: StatefulQueryDetector,
                 controller: AdmissionController, tenant: str,
                 arrival_qps: float = 5.0) -> None:
        self._service = service
        self.detector = detector
        self.controller = controller
        self.tenant = tenant
        self.arrival_qps = float(arrival_qps)
        self.arrivals = 0
        self.rejections: dict[str, int] = {}

    def _account(self, video) -> None:
        now_s = self.arrivals / self.arrival_qps
        self.arrivals += 1
        self.detector.observe(self.tenant, video)
        rejection = self.controller.admit(self.tenant, now_s)
        if rejection is None:
            self.controller.mark_served(self.tenant)
        else:
            self.rejections[rejection.reason] = (
                self.rejections.get(rejection.reason, 0) + 1)

    def query(self, video, m=None):
        self._account(video)
        return self._service.query(video, m)

    def query_batch(self, videos, m=None):
        # Batched probes arrive as one request, but the edge sees (and
        # charges) each candidate query individually.
        for video in videos:
            self._account(video)
        return self._service.query_batch(videos, m)

    def speculate(self, videos, m=None):
        # Speculated candidates still physically reach the service —
        # the attacker's ledger refunds unconsumed ones, the edge's
        # does not.
        for video in videos:
            self._account(video)
        return self._service.speculate(videos, m)

    def __getattr__(self, name):
        return getattr(self._service, name)


def grid_cell(name: str, *, seed: int, iterations: int, budget: int,
              tenant_budget: int, rate_per_s: float) -> dict:
    """Run one registry composition behind the gated edge stack."""
    entry = ATTACK_STRATEGIES[name]
    world = build_world(seed, cache_size=0)
    detector = StatefulQueryDetector(window=64, distance_threshold=0.08,
                                     flag_after=5)
    controller = AdmissionController(ServingConfig(tenants={
        "attacker": TenantPolicy(rate_per_s=rate_per_s, burst=8,
                                 query_budget=tenant_budget),
    }))
    gated = GatedService(world.service, detector, controller, "attacker")

    extras: dict = {}
    if name == "duo":
        extras = {"rounds": 2, "sampler": {"outer_iters": 1,
                                           "theta_steps": 3}}
    elif name == "heu-nes":
        extras = {"feedback": {"samples": 2}}
    config = AttackConfig(strategy=name, k=48, n=2, tau=30.0,
                          iterations=iterations, budget=budget, **extras)
    surrogate = tiny_extractor(seed + 23) if entry.needs_surrogate else None
    attack = build_attack(config,
                          service=gated if entry.needs_service else None,
                          surrogate=surrogate,
                          rng=np.random.default_rng(seed + 17))

    start = time.perf_counter()
    report = attack.run(world.original, world.target)
    elapsed = time.perf_counter() - start
    check_budget_conservation(world.service)

    trace = list(report.trace)
    ledger = controller.ledger("attacker")
    return {
        "strategy": name,
        "composition": entry.composition(),
        "new": name in NEW_COMPOSITIONS,
        "queries": int(report.queries),
        "budget": budget,
        "under_budget": int(report.queries) <= budget,
        "objective_first": trace[0] if trace else None,
        "objective_best": min(trace) if trace else None,
        "improved": bool(trace) and min(trace) < trace[0],
        "detector_flagged": detector.is_flagged("attacker"),
        "detector_hits": detector.hit_count("attacker"),
        "admitted": ledger.admitted,
        "rejected": dict(sorted(gated.rejections.items())),
        "tenant_budget": tenant_budget,
        "wall_s": elapsed,
    }


def run_grid(*, seed: int, iterations: int, budget: int, tenant_budget: int,
             rate_per_s: float) -> list[dict]:
    cells = []
    for name in sorted(ATTACK_STRATEGIES):
        if name in SKIPPED:
            print(f"[bench_attack_grid] skipping {name} "
                  f"(needs externally supplied priors)")
            continue
        cell = grid_cell(name, seed=seed, iterations=iterations,
                         budget=budget, tenant_budget=tenant_budget,
                         rate_per_s=rate_per_s)
        print(f"[bench_attack_grid] {name:10s} {cell['composition']:40s} "
              f"queries={cell['queries']:4d}/{budget} "
              f"flagged={cell['detector_flagged']} "
              f"rejected={sum(cell['rejected'].values())}")
        cells.append(cell)
    return cells


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the attack-strategy grid against the defenses.")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: tiny budgets, same checks")
    args = parser.parse_args(argv)

    iterations = SMOKE_ITERATIONS if args.smoke else ITERATIONS
    budget = SMOKE_BUDGET if args.smoke else BUDGET
    tenant_budget = budget  # the edge grants exactly the attack's budget
    rate_per_s = 2.0 if args.smoke else 4.0

    cells = run_grid(seed=SEED, iterations=iterations, budget=budget,
                     tenant_budget=tenant_budget, rate_per_s=rate_per_s)

    result = {
        "bench": "attack_grid",
        "timestamp": time.time(),
        "smoke": args.smoke,
        "iterations": iterations,
        "budget": budget,
        "rate_per_s": rate_per_s,
        "cells": cells,
    }
    failures = []
    over = [c["strategy"] for c in cells if not c["under_budget"]]
    if over:
        failures.append(f"over budget: {over}")
    ran_new = [c["strategy"] for c in cells if c["new"]]
    if len(ran_new) < 3:
        failures.append(f"only {len(ran_new)} new compositions ran "
                        f"({ran_new}); need 3")
    querying = [c for c in cells if c["queries"] > 0]
    if not any(c["improved"] for c in querying):
        failures.append("no query-based cell improved its objective")
    return finish("attacks", result, failures, args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
