"""Golden-trace regression: stored goldens match recomputation, and the
regen CLI enforces its contract (check mode, dirty-tree refusal,
golden-dir override)."""

import contextlib
import json

import pytest

from repro.qa import eager_forwards, regen
from repro.qa.golden import (
    SCENARIOS,
    check_scenario,
    compare_golden,
    dump_golden,
    golden_dir,
    golden_path,
    load_golden,
)


@pytest.mark.parametrize(
    "name,eager",
    [(name, False) for name in sorted(SCENARIOS)]
    + [(name, True) for name in sorted(SCENARIOS)],
    ids=sorted(SCENARIOS) + [f"{name}-eager" for name in sorted(SCENARIOS)])
def test_scenario_matches_stored_golden(name, eager):
    """Production trace replay (plain ids) and the eager reference
    forward (``-eager`` ids) both reproduce every stored golden."""
    with eager_forwards() if eager else contextlib.nullcontext():
        assert check_scenario(name) == []


# ---------------------------------------------------------------------- #
# compare_golden semantics
# ---------------------------------------------------------------------- #
def test_compare_accepts_float_drift_within_tolerance():
    expected = {"final_objective": 1.0, "trace": [0.5, 0.25]}
    actual = {"final_objective": 1.0 + 1e-9, "trace": [0.5, 0.25 + 1e-10]}
    assert compare_golden(expected, actual) == []


def test_compare_rejects_float_drift_beyond_tolerance():
    problems = compare_golden({"final_objective": 1.0},
                              {"final_objective": 1.001})
    assert len(problems) == 1 and "final_objective" in problems[0]


def test_compare_digest_fields_are_exact():
    problems = compare_golden({"perturbation_digest": "aa"},
                              {"perturbation_digest": "ab"})
    assert len(problems) == 1 and "perturbation_digest" in problems[0]


def test_compare_count_fields_are_exact():
    assert compare_golden({"service_query_count": 10},
                          {"service_query_count": 11})
    assert compare_golden({"service_query_count": 10},
                          {"service_query_count": 10}) == []


def test_compare_reports_missing_and_extra_fields():
    problems = compare_golden({"a_count": 1}, {"b_count": 2})
    assert any("missing field 'a_count'" in p for p in problems)
    assert any("unexpected field 'b_count'" in p for p in problems)


def test_dump_golden_is_canonical():
    data = {"b": 1, "a": [1.5, 2.5]}
    text = dump_golden(data)
    assert text == dump_golden(json.loads(text))
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


# ---------------------------------------------------------------------- #
# Golden-dir override and the regen CLI
# ---------------------------------------------------------------------- #
def test_golden_dir_honors_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_QA_GOLDEN_DIR", str(tmp_path))
    assert golden_dir() == tmp_path
    assert golden_path("x") == tmp_path / "x.json"
    monkeypatch.delenv("REPRO_QA_GOLDEN_DIR")
    assert golden_dir().name == "goldens"


def test_regen_check_passes_on_committed_goldens():
    assert regen.main(["--check", "sparse_query"]) == 0


def test_regen_check_flags_tampered_golden(monkeypatch, tmp_path, capsys):
    document = load_golden("sparse_query")
    document["perturbation_digest"] = "0" * 32
    monkeypatch.setenv("REPRO_QA_GOLDEN_DIR", str(tmp_path))
    (tmp_path / "sparse_query.json").write_text(dump_golden(document))
    assert regen.main(["--check", "sparse_query"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_regen_check_flags_missing_golden(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_QA_GOLDEN_DIR", str(tmp_path))
    assert regen.main(["--check", "sparse_query"]) == 1
    assert "MISSING" in capsys.readouterr().out


def test_regen_refuses_dirty_tree(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_QA_GOLDEN_DIR", str(tmp_path))
    monkeypatch.setattr(regen, "_dirty_tracked_files",
                        lambda: [" M src/repro/qa/golden.py"])
    assert regen.main(["sparse_query"]) == 2
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_regen_force_writes_then_check_passes(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_QA_GOLDEN_DIR", str(tmp_path))
    monkeypatch.setattr(regen, "_dirty_tracked_files",
                        lambda: [" M src/repro/qa/golden.py"])
    assert regen.main(["--force", "sparse_query"]) == 0
    assert (tmp_path / "sparse_query.json").exists()
    assert regen.main(["--check", "sparse_query"]) == 0


def test_regen_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        regen.main(["no_such_scenario"])
