"""Quick-mode paper benches must leave the committed ``results/`` alone.

``benchmarks/common.py`` is loaded from its file with the environment a
bench run would see; its ``save_table`` is then pointed at every
committed table name.
"""

import importlib.util
import tempfile
from pathlib import Path

from repro.experiments.report import TableResult

ROOT = Path(__file__).parent.parent


def load_common(monkeypatch, **env):
    monkeypatch.delenv("REPRO_RESULTS", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    spec = importlib.util.spec_from_file_location(
        "bench_common_probe", ROOT / "benchmarks" / "common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def probe_table() -> TableResult:
    table = TableResult("probe", ["cell"])
    table.add_row(1)
    return table


def test_quick_mode_leaves_results_untouched(monkeypatch, tmp_path):
    results = ROOT / "results"
    before = {path.name: path.read_bytes() for path in results.iterdir()}
    assert before, "no committed tables to protect"
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    common = load_common(monkeypatch, REPRO_BENCH_QUICK="1")
    for name in before:
        common.save_table(Path(name).stem, probe_table())
    assert {path.name: path.read_bytes()
            for path in results.iterdir()} == before
    assert sorted(path.name for path in common.RESULTS_DIR.iterdir()) == \
        sorted(before)


def test_results_variable_still_wins(monkeypatch, tmp_path):
    out = tmp_path / "tables"
    common = load_common(monkeypatch, REPRO_BENCH_QUICK="1",
                         REPRO_RESULTS=str(out))
    common.save_table("probe", probe_table())
    assert (out / "probe.txt").read_text().strip()
