"""The shared bench helpers in ``benchmarks/common.py``.

Quick-mode paper benches must leave the committed ``results/`` alone,
the CI benches' timing runner must warm up, interleave and summarize
as documented, and only a passing full run may record a
``BENCH_*.json``.  The module is loaded from its file with the
environment a bench run would see.
"""

import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest

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


class FakeClock:
    """A ``time`` stand-in: bodies advance it, reads are logged."""

    def __init__(self, log):
        self.now, self.log = 0.0, log

    def perf_counter(self):
        self.log.append(("clock",))
        return self.now


def recording_configs(clock, durations):
    """Configurations whose setup and body log their calls; the n-th
    timed body of ``name`` takes ``durations[name][n]`` seconds (its
    warm-up takes none)."""
    def config(name):
        calls = iter([0.0] + list(durations[name]))

        def setup():
            clock.log.append(("setup", name))

            def body():
                clock.log.append(("body", name))
                clock.now += next(calls)
                return name
            return body
        return setup
    return {name: config(name) for name in durations}


def test_runner_warms_up_then_alternates_order(monkeypatch):
    common = load_common(monkeypatch)
    log = []
    clock = FakeClock(log)
    monkeypatch.setattr(common, "time", clock)
    durations = {"a": [1.0] * 4, "b": [1.0] * 4, "c": [1.0] * 4}
    common.interleave(recording_configs(clock, durations), rounds=4)
    warm_up = [(kind, name) for name in "abc" for kind in ("setup", "body")]
    assert log[:len(warm_up)] == warm_up
    timed = log[len(warm_up):]
    assert [event[1] for event in timed if event[0] == "body"] == \
        list("abc" "cba" "abc" "cba")
    for index, event in enumerate(timed):  # only bodies are timed
        if event[0] == "body":
            assert timed[index - 1] == timed[index + 1] == ("clock",)
        if event[0] == "setup":
            assert timed[index + 1] == ("clock",)
            assert index == 0 or timed[index - 1] == ("clock",)


def test_runner_summarizes_given_samples(monkeypatch):
    common = load_common(monkeypatch)
    clock = FakeClock([])
    monkeypatch.setattr(common, "time", clock)
    durations = {"slow": [4.0, 6.0, 5.0, 9.0, 4.5, 7.0],
                 "fast": [2.0, 2.0, 2.5, 3.0, 1.0, 3.0]}
    timing = common.interleave(recording_configs(clock, durations), 6)
    assert timing.samples == durations
    assert timing.results == {"slow": "slow", "fast": "fast"}
    slow = timing.stats("slow")
    assert slow["min_s"] == 4.0
    assert slow["median_s"] == 5.5
    assert slow["iqr_s"] == [4.625, 6.75]
    # One ratio per pair of rounds run in opposite orders.
    ratios = [10.0 / 4.0, 14.0 / 5.5, 11.5 / 4.0]
    speedup = timing.ratio("slow", "fast")
    assert speedup["median"] == pytest.approx(np.median(ratios))
    assert speedup["iqr"] == pytest.approx(
        list(np.percentile(ratios, [25, 75])))
    with pytest.raises(ValueError, match="even"):
        common.interleave(recording_configs(clock, durations), 5)


def test_regressions_gate_recorded_ratios(monkeypatch):
    common = load_common(monkeypatch)
    baseline = {"a": {"speedup": 2.0}, "b": 1.0}
    result = {"a": {"speedup": 1.7}, "b": 0.95, "c": 0.1}
    failures = common.regressions(result, baseline, ["a.speedup", "b", "c"])
    assert len(failures) == 1 and failures[0].startswith("a.speedup")


@pytest.mark.parametrize("smoke, failures", [(True, []), (True, ["slow"]),
                                             (False, ["slow"])])
def test_smoke_or_failure_never_records(monkeypatch, tmp_path, smoke,
                                        failures):
    common = load_common(monkeypatch)
    monkeypatch.setattr(common, "BENCH_DIR", tmp_path)
    recorded = tmp_path / "BENCH_probe.json"
    recorded.write_bytes(b'{"speedup": 2.0}\n')
    status = common.finish("probe", {"speedup": 9.0}, failures, smoke)
    assert status == (1 if failures else 0)
    assert recorded.read_bytes() == b'{"speedup": 2.0}\n'


def test_passing_full_run_records(monkeypatch, tmp_path):
    common = load_common(monkeypatch)
    monkeypatch.setattr(common, "BENCH_DIR", tmp_path)
    assert common.finish("probe", {"speedup": 9.0}, [], smoke=False) == 0
    recorded = common.recorded("probe")
    assert recorded.pop("environment") == common.environment()
    assert recorded == {"speedup": 9.0}


def test_environment_names_the_run(monkeypatch):
    common = load_common(monkeypatch, OPENBLAS_NUM_THREADS="1")
    stamp = common.environment()
    assert stamp["python"].count(".") == 2
    assert stamp["numpy"] == np.__version__
    assert stamp["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(stamp["blas_threads"]) == set(common.BLAS_THREAD_VARS)
    assert stamp["cpu_count"] >= 1
    assert stamp["git_head"] is None or len(stamp["git_head"]) == 40
