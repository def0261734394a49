"""Shared benchmark configuration, result persistence and timing runner.

Benchmarks regenerate the paper's tables/figures at the scale in
``BENCH_SCALE`` and write the formatted tables to ``results/``.  Set
``REPRO_BENCH_QUICK=1`` to run the whole suite in smoke mode (structure
only, minutes → seconds); its tables go to a temporary directory so the
committed full-scale ones stay put, unless ``REPRO_RESULTS`` names one.

The CI benches (``bench_*.py``) time every A/B comparison through
:func:`interleave`, gate recorded ratios with :func:`regressions`, and
end with :func:`finish`, which records ``BENCH_<name>.json`` only on a
full run that passed, stamped with the :func:`environment` it ran in.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.experiments import DEFAULT_SCALE, QUICK_SCALE
from repro.experiments.report import TableResult

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") == "1"

#: The scale every bench runs at.
BENCH_SCALE = QUICK_SCALE if QUICK else DEFAULT_SCALE.replace(
    pairs=3,
    iter_num_q=100,
    query_iterations=200,
    nes_iterations=25,
)

RESULTS_DIR = Path(os.environ.get("REPRO_RESULTS") or (
    Path(tempfile.gettempdir()) / "repro-bench-quick" if QUICK
    else "results"))

#: Where the CI benches keep their recorded ``BENCH_<name>.json``.
BENCH_DIR = Path(__file__).resolve().parent.parent


def save_table(name: str, table: TableResult) -> None:
    """Print the table and persist it under ``RESULTS_DIR/<name>.txt``."""
    text = table.format()
    print("\n" + text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def _quartiles(values) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


class Timing:
    """Per-round wall seconds of each configuration of one comparison.

    ``results`` holds each configuration's last timed return value.
    """

    def __init__(self, samples: dict[str, list[float]],
                 results: dict[str, object]) -> None:
        self.samples = samples
        self.results = results

    def stats(self, name: str) -> dict:
        """``min_s``, ``median_s`` and the quartiles ``iqr_s`` of one
        configuration."""
        q1, median, q3 = _quartiles(self.samples[name])
        return {"min_s": min(self.samples[name]), "median_s": median,
                "iqr_s": [q1, q3]}

    def median(self, name: str) -> float:
        return self.stats(name)["median_s"]

    def ratio(self, num: str, den: str) -> dict:
        """Median and quartiles (``iqr``) of the ``num / den`` time
        ratio; a speedup of ``den`` over ``num``.

        One ratio per pair of consecutive rounds, which ran in opposite
        orders: a body runs measurably faster right after itself than
        after another configuration (caches), so a single round's ratio
        depends on its position and the per-round median would jump
        between the two.
        """
        a, b = self.samples[num], self.samples[den]
        q1, median, q3 = _quartiles(
            [(a[i] + a[i + 1]) / (b[i] + b[i + 1])
             for i in range(0, len(a) - 1, 2)])
        return {"median": median, "iqr": [q1, q3]}


def interleave(configs: dict[str, Callable[[], Callable[[], object]]],
               rounds: int) -> Timing:
    """Time each configuration over ``rounds`` interleaved rounds.

    A configuration is an untimed setup: called with no arguments, it
    returns the body to time.  Every configuration first runs once
    (setup and body) untimed, so traces, plans and caches are warm
    before any timed call.  Each round then sets up and times every
    configuration once, reversing the order on odd rounds so no
    configuration always runs first.  ``rounds`` must be even, so that
    every round pairs with one in the opposite order.
    """
    if rounds < 2 or rounds % 2:
        raise ValueError(f"rounds must be a positive even count, "
                         f"got {rounds}")
    names = list(configs)
    for name in names:
        configs[name]()()
    samples: dict[str, list[float]] = {name: [] for name in names}
    results: dict[str, object] = {}
    for round_index in range(rounds):
        for name in names if round_index % 2 == 0 else names[::-1]:
            body = configs[name]()
            start = time.perf_counter()
            results[name] = body()
            samples[name].append(time.perf_counter() - start)
    return Timing(samples, results)


def recorded(name: str) -> dict:
    """The recorded ``BENCH_<name>.json``, or ``{}`` when none exists."""
    path = BENCH_DIR / f"BENCH_{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _lookup(result: dict, path: str):
    for key in path.split("."):
        if not isinstance(result, dict) or key not in result:
            return None
        result = result[key]
    return result


def regressions(result: dict, baseline: dict, checks: list[str],
                tolerance: float = 0.10) -> list[str]:
    """Every ratio in ``checks`` that fell more than ``tolerance`` under
    its recorded value.

    ``checks`` are dotted key paths into both ``result`` and
    ``baseline`` (a recorded ``BENCH_*.json``); a path the baseline
    does not hold is not checked.  Ratios, not wall times, so the check
    is machine-independent.
    """
    failures = []
    for path in checks:
        measured, expected = _lookup(result, path), _lookup(baseline, path)
        if expected is None:
            continue
        floor = expected * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"{path} regressed: {measured:.2f}x < {floor:.2f}x "
                f"(recorded {expected:.2f}x - {tolerance:.0%})")
    return failures


#: Environment variables that set the BLAS thread count.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    """What a run measured on: Python and numpy versions, BLAS thread
    variables, CPU count and the git HEAD (``None`` outside a checkout)."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {key: os.environ.get(key)
                         for key in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_head": head,
    }


def finish(name: str, result: dict, failures: list[str],
           smoke: bool) -> int:
    """Print ``result`` and ``failures``; return the exit status.

    Only a full run with no failures records ``BENCH_<name>.json``;
    ``--smoke`` and failing runs leave the recorded baseline alone.
    Every run's ``result`` gains an ``environment`` entry.
    """
    result = {**result, "environment": environment()}
    print(json.dumps(result, indent=2))
    for failure in failures:
        print(f"[BENCH_{name}] FAIL: {failure}")
    if failures:
        return 1
    if smoke:
        print(f"[BENCH_{name}] smoke OK")
        return 0
    path = BENCH_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"[BENCH_{name}] wrote {path}")
    return 0
