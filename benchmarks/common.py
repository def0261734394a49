"""Shared benchmark configuration and result persistence.

Benchmarks regenerate the paper's tables/figures at the scale in
``BENCH_SCALE`` and write the formatted tables to ``results/``.  Set
``REPRO_BENCH_QUICK=1`` to run the whole suite in smoke mode (structure
only, minutes → seconds); its tables go to a temporary directory so the
committed full-scale ones stay put, unless ``REPRO_RESULTS`` names one.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

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


def save_table(name: str, table: TableResult) -> None:
    """Print the table and persist it under ``RESULTS_DIR/<name>.txt``."""
    text = table.format()
    print("\n" + text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
