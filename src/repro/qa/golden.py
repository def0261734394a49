"""Golden-trace regression scenarios and tolerance-aware comparison.

Each scenario deterministically runs one attack (or one end-to-end
experiment) in a tiny seeded world and distills the result into a
compact JSON document: content hashes of perturbations (exact), the
per-query objective trace (tolerance-compared), and the query/budget
counters (exact).  Goldens live in ``src/repro/qa/goldens/`` (override
with ``REPRO_QA_GOLDEN_DIR``) and are regenerated only through
``python -m repro.qa.regen`` so every change is a deliberate,
reviewable diff.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from repro.attacks.config import AttackConfig
from repro.attacks.duo.sparse_transfer import SparseTransfer
from repro.attacks.objective import RetrievalObjective
from repro.attacks.registry import build_attack
from repro.attacks.search import nes_search, simba_search
from repro.metrics.perturbation import perturbed_frames, sparsity
from repro.qa.comparators import array_digest
from repro.qa.pairs import _qa_priors, duo_query_attack
from repro.qa.world import build_world, tiny_extractor
from repro.utils.envflags import env_str

#: Exact-match fields; everything else numeric is tolerance-compared.
EXACT_SUFFIXES = ("_digest", "_count", "_queries", "_spa", "_frames",
                  "_lines")
RTOL = 1e-7
ATOL = 1e-9

#: World/attack seeds for the golden scenarios — changing any of these
#: invalidates the goldens, so they are module constants, not arguments.
WORLD_SEED = 73
ATTACK_SEED = 1051


def golden_dir() -> Path:
    """Directory holding the golden JSON files."""
    override = env_str("REPRO_QA_GOLDEN_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "goldens"


def golden_path(name: str) -> Path:
    return golden_dir() / f"{name}.json"


def load_golden(name: str) -> dict:
    """Read one golden document (raises FileNotFoundError when absent)."""
    return json.loads(golden_path(name).read_text())


def dump_golden(data: dict) -> str:
    """Canonical byte-stable JSON encoding (sorted keys, trailing newline)."""
    return json.dumps(data, sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def write_golden(name: str, data: dict) -> Path:
    path = golden_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_golden(data))
    return path


# ---------------------------------------------------------------------- #
# Scenarios
# ---------------------------------------------------------------------- #
def _objective_world():
    world = build_world(WORLD_SEED, cache_size=0)
    objective = RetrievalObjective(world.service, world.original,
                                   world.target)
    return world, objective


def scenario_sparse_query() -> dict:
    """DUO's query stage over fixed priors (the ``duo-query`` composition)."""
    world = build_world(WORLD_SEED, cache_size=0)
    priors = _qa_priors(world.original.pixels.shape, ATTACK_SEED + 1)
    report = duo_query_attack(priors, 16, world.service, ATTACK_SEED).run(
        world.original, world.target)
    adversarial, trace = report.adversarial, report.trace
    perturbation = adversarial.perturbation_from(world.original)
    return {
        "perturbation_digest": array_digest(adversarial.pixels),
        "trace": [float(v) for v in trace],
        "final_objective": float(trace[-1]),
        "objective_queries": int(report.queries),
        "service_query_count": int(world.service.query_count),
        "perturbation_spa": sparsity(perturbation),
        "perturbed_frames": int(perturbed_frames(perturbation)),
    }


def scenario_sparse_transfer() -> dict:
    world, _ = _objective_world()
    surrogate = tiny_extractor(ATTACK_SEED + 2)
    attack = SparseTransfer(surrogate, k=48, n=2, tau=30, outer_iters=1,
                            theta_steps=4, frame_steps=2, rng=ATTACK_SEED + 3)
    priors = attack.run(world.original, world.target)
    perturbation = priors.perturbation()
    return {
        "perturbation_digest": array_digest(perturbation),
        "theta_digest": array_digest(priors.theta),
        "frame_mask": [float(v) for v in priors.frame_mask],
        "perturbation_spa": sparsity(perturbation),
        "perturbed_frames": int(perturbed_frames(perturbation)),
        "theta_linf": float(np.abs(priors.theta).max()),
    }


def scenario_simba() -> dict:
    world, objective = _objective_world()
    support = np.zeros(world.original.pixels.shape, dtype=bool)
    support[:2] = True
    report = simba_search(
        world.original, objective, support, tau=30 / 255.0, iterations=10,
        rng=ATTACK_SEED + 4)
    perturbation, trace = report.perturbation, report.trace
    return {
        "perturbation_digest": array_digest(perturbation),
        "trace": [float(v) for v in trace],
        "final_objective": float(min(trace)),
        "objective_queries": int(objective.queries),
        "service_query_count": int(world.service.query_count),
    }


def scenario_nes() -> dict:
    world, objective = _objective_world()
    support = np.zeros(world.original.pixels.shape, dtype=bool)
    support[:2] = True
    report = nes_search(
        world.original, objective, support, tau=30 / 255.0, iterations=3,
        samples=2, rng=ATTACK_SEED + 6)
    perturbation, trace = report.perturbation, report.trace
    return {
        "perturbation_digest": array_digest(perturbation),
        "trace": [float(v) for v in trace],
        "final_objective": float(min(trace)),
        "objective_queries": int(objective.queries),
        "service_query_count": int(world.service.query_count),
    }


def _composed_scenario(strategy: str, targeted: bool = True) -> dict:
    """One registry composition on the golden world, via ``run``."""
    world = build_world(WORLD_SEED, cache_size=0)
    config = AttackConfig(strategy=strategy, k=256, n=8, tau=128.0,
                          iterations=16)
    attack = build_attack(config, service=world.service,
                          rng=ATTACK_SEED + 7)
    report = attack.run(world.original, world.target if targeted else None)
    trace = report.trace
    return {
        "perturbation_digest": array_digest(report.adversarial.pixels),
        "trace": [float(v) for v in trace],
        "final_objective": float(min(trace)),
        "objective_queries": int(report.queries),
        "service_query_count": int(world.service.query_count),
    }


def scenario_run_all_fig5() -> dict:
    """End-to-end: the quick-scale fig5 experiment through the CLI."""
    from repro.experiments.run_all import main

    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(scratch) / "out"
        cache_dir = Path(scratch) / "cache"
        previous = os.environ.get("REPRO_CACHE")
        os.environ["REPRO_CACHE"] = str(cache_dir)
        try:
            code = main(["fig5", "--quick", "--no-obs",
                         "--out", str(out_dir)])
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE", None)
            else:
                os.environ["REPRO_CACHE"] = previous
        assert code == 0, f"run_all fig5 exited with {code}"
        text = (out_dir / "fig5.txt").read_text()
    return {
        "text_digest": array_digest(np.frombuffer(text.encode(),
                                                  dtype=np.uint8)),
        "text_lines": text.splitlines(),
    }


SCENARIOS: dict[str, Callable[[], dict]] = {
    "sparse_query": scenario_sparse_query,
    "sparse_transfer": scenario_sparse_transfer,
    "simba": scenario_simba,
    "nes": scenario_nes,
    "qair": lambda: _composed_scenario("qair"),
    "lowrank": lambda: _composed_scenario("lowrank"),
    "simba_untargeted": lambda: _composed_scenario("vanilla", targeted=False),
    "run_all_fig5": scenario_run_all_fig5,
}


# ---------------------------------------------------------------------- #
# Comparison
# ---------------------------------------------------------------------- #
def _is_exact(key: str) -> bool:
    return key.endswith(EXACT_SUFFIXES) or key == "frame_mask"


def compare_golden(expected: dict, actual: dict,
                   rtol: float = RTOL, atol: float = ATOL) -> list[str]:
    """Return human-readable mismatch descriptions (empty = match).

    Hash/count fields compare exactly; float fields and traces compare
    with tolerance, so a golden survives benign platform drift while
    still pinning hashes on the platforms that generated it.
    """
    problems: list[str] = []
    for key in sorted(set(expected) | set(actual)):
        if key not in expected:
            problems.append(f"unexpected field {key!r}")
            continue
        if key not in actual:
            problems.append(f"missing field {key!r}")
            continue
        want, got = expected[key], actual[key]
        if _is_exact(key):
            if want != got:
                problems.append(f"{key}: expected {want!r}, got {got!r}")
            continue
        try:
            np.testing.assert_allclose(np.asarray(got, dtype=float),
                                       np.asarray(want, dtype=float),
                                       rtol=rtol, atol=atol)
        except (AssertionError, ValueError) as error:
            problems.append(f"{key}: {str(error).strip().splitlines()[0]} "
                            f"(expected {want!r}, got {got!r})"
                            if not isinstance(error, AssertionError)
                            else f"{key}: outside tolerance "
                                 f"(rtol={rtol}, atol={atol})")
    return problems


def check_scenario(name: str) -> list[str]:
    """Recompute one scenario and compare it to its stored golden."""
    expected = load_golden(name)
    actual = SCENARIOS[name]()
    return compare_golden(expected, actual)
