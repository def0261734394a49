"""Smoke tests: every table/figure runner executes at micro scale.

These use an even smaller configuration than QUICK_SCALE and a tmp cache
so they are hermetic; they assert structure, not attack quality.
"""

import logging

import numpy as np
import pytest

from repro.experiments import ExperimentScale
from repro.experiments import (
    fig3_victim_maps,
    fig4_surrogate_maps,
    fig5_query_curves,
    table2_attack_comparison,
    table3_surrogate_size,
    table4_victim_loss,
    table5_k_sweep,
    table6_n_sweep,
    table7_tau_sweep,
    table8_iternumh,
    table9_transferability,
    table10_defenses,
)

MICRO = ExperimentScale(
    height=12, width=12, num_frames=4,
    dataset_sizes=(("ucf101", 4, 16, 6), ("hmdb51", 3, 12, 5)),
    feature_dim=12, model_width=2, victim_epochs=1, m=6, num_nodes=2,
    surrogate_rounds=1, surrogate_branch=1, surrogate_epochs=1,
    surrogate_feature_dim=12,
    n=2, k_fraction=0.2, iter_num_q=4, iter_num_h=1,
    transfer_outer_iters=1, theta_steps=1, timi_iterations=1,
    nes_iterations=1, nes_samples=1, query_iterations=4, pairs=1,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))


def test_fig3(capsys):
    table = fig3_victim_maps.run(MICRO, datasets=("ucf101",),
                                 backbones=("c3d",), losses=("arcface",),
                                 max_queries=3)
    assert table.headers == ["dataset", "backbone", "loss", "mAP"]
    assert len(table.rows) == 1
    assert 0.0 <= table.rows[0][-1] <= 1.0


def test_fig4():
    table = fig4_surrogate_maps.run(MICRO, datasets=("ucf101",),
                                    rounds_sweep=(1,), feature_sweep=(12,),
                                    victim_backbone="c3d", max_queries=2)
    assert len(table.rows) == 1


def test_table2():
    table = table2_attack_comparison.run(
        MICRO, datasets=("ucf101",), victims=("c3d",),
        attacks=("vanilla", "duo-c3d"),
    )
    attack_column = table.column("attack")
    assert "w/o attack" in attack_column
    assert "duo-c3d" in attack_column


def test_table3():
    table = table3_surrogate_size.run(
        MICRO, datasets=("ucf101",), attacks=("duo-c3d",), rounds_sweep=(1,),
        victim_backbone="c3d",
    )
    assert table.column("rounds") == [1]


def test_table4():
    table = table4_victim_loss.run(
        MICRO, datasets=("ucf101",), attacks=("duo-c3d",),
        losses=("arcface", "lifted"), victim_backbone="c3d",
    )
    assert set(table.column("victim_loss")) == {"arcface", "lifted"}


def test_table5():
    table = table5_k_sweep.run(
        MICRO, datasets=("ucf101",), attacks=("duo-c3d",),
        k_fractions=(0.1, 0.2), victim_backbone="c3d",
    )
    ks = table.column("k")
    assert ks[0] < ks[1]


def test_table6():
    table = table6_n_sweep.run(
        MICRO, datasets=("ucf101",), attacks=("duo-c3d",), n_sweep=(1, 2),
        victim_backbone="c3d",
    )
    assert table.column("n") == [1, 2]


def test_fig5():
    table = fig5_query_curves.run(
        MICRO, datasets=("ucf101",), attacks=("vanilla",),
        victim_backbone="c3d", checkpoints=3,
    )
    row = table.rows[0]
    # min-so-far series is non-increasing
    series = row[3:]
    assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))


def test_table7():
    table = table7_tau_sweep.run(
        MICRO, datasets=("ucf101",), attacks=("duo-c3d",),
        tau_sweep=(15.0, 30.0), victim_backbone="c3d",
    )
    assert table.column("tau") == [15.0, 30.0]


def test_table8():
    table = table8_iternumh.run(
        MICRO, datasets=("ucf101",), attacks=("duo-c3d",), sweep=(1, 2),
        victim_backbone="c3d",
    )
    queries = table.column("queries")
    assert queries[1] >= queries[0]  # more loops, more queries


def test_table9():
    table = table9_transferability.run(
        MICRO, victims=("c3d",), surrogate_backbones=("c3d",),
        constraints=("linf",),
    )
    assert set(table.column("constraint")) == {"linf"}
    spas = dict(zip(table.column("attack"), table.column("Spa")))
    assert spas["duo-c3d"] <= spas["timi-c3d"]


def test_table10():
    table = table10_defenses.run(
        MICRO, datasets=("ucf101",), attacks=("vanilla",),
        victim_backbone="c3d", calibration_queries=4,
    )
    assert all(0.0 <= value <= 100.0
               for value in table.column("feature_squeezing"))


def test_victim_cache_roundtrip(tmp_path, monkeypatch):
    from repro.experiments import fixtures

    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "c2"))
    dataset = fixtures.dataset_for("ucf101", MICRO)
    first = fixtures.victim_for(dataset, "c3d", "arcface", MICRO)
    second = fixtures.victim_for(dataset, "c3d", "arcface", MICRO)
    query = dataset.test[0]
    assert first.service.query(query).ids == second.service.query(query).ids


def test_truncated_cache_archive_is_a_logged_miss(tmp_path, monkeypatch,
                                                  caplog):
    from repro.experiments import fixtures

    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "c3"))
    dataset = fixtures.dataset_for("ucf101", MICRO)
    key = MICRO.cache_key("victim", dataset.name, "c3d", "arcface")
    path = fixtures.cache_dir() / f"victim-{key}.npz"
    # A run interrupted mid-write leaves a truncated archive behind.
    np.savez(path, weights=np.arange(4096.0))
    path.write_bytes(path.read_bytes()[:512])

    repro_logger = logging.getLogger("repro")
    repro_logger.addHandler(caplog.handler)
    try:
        victim = fixtures.victim_for(dataset, "c3d", "arcface", MICRO)
    finally:
        repro_logger.removeHandler(caplog.handler)

    warnings = [record for record in caplog.records
                if record.levelno == logging.WARNING]
    assert any(str(path) in record.getMessage() for record in warnings)
    # Rebuilt like a miss, and rewritten as a loadable archive.
    with np.load(path) as archive:
        assert "__gallery_features__" in archive.files
    assert list(path.parent.glob("*.tmp")) == []
    reloaded = fixtures.victim_for(dataset, "c3d", "arcface", MICRO)
    query = dataset.test[0]
    assert victim.service.query(query).ids == \
        reloaded.service.query(query).ids
