"""Disk-cached experiment fixtures: datasets, victims, surrogates.

Training a victim takes seconds-to-minutes; the benchmark grid reuses the
same victims across many tables.  Fixtures are cached under
``$REPRO_CACHE`` (default ``./.repro_cache``): model weights as ``.npz``
state dicts and gallery features as arrays, keyed by a configuration
hash.  Datasets are regenerated deterministically from their seed, so
only learned state is stored.  Archives are written atomically, and an
unreadable one is logged with its path and rebuilt like a cache miss.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from repro.experiments.config import ExperimentScale
from repro.losses.registry import create_loss
from repro.models.registry import create_feature_extractor
from repro.retrieval.engine import RetrievalEngine
from repro.retrieval.service import RetrievalService
from repro.surrogate.stealing import steal_training_set
from repro.surrogate.trainer import SurrogateTrainer
from repro.training.trainer import MetricTrainer, TrainingHistory
from repro.training.victim import VictimSystem
from repro.utils.envflags import env_str
from repro.utils.logging import get_logger
from repro.utils.seeding import SeedSequence
from repro.video.datasets import SyntheticVideoDataset, load_dataset

logger = get_logger("experiments.fixtures")


def cache_dir() -> Path:
    """Return (and create) the fixture cache directory (``REPRO_CACHE``).

    Unset or blank means the default ``.repro_cache``.
    """
    path = Path(env_str("REPRO_CACHE", ".repro_cache"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_arrays(path: Path) -> dict[str, np.ndarray] | None:
    """The arrays cached at ``path``, or ``None`` on a cache miss.

    A missing file is a miss; so is an unreadable one (say, truncated by
    an interrupted run), which is logged with its path.
    """
    if not path.exists():
        return None
    try:
        # np.load leaks its own file handle when the archive is corrupt.
        with open(path, "rb") as handle, np.load(handle) as archive:
            return {name: archive[name] for name in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        logger.warning("ignoring unreadable fixture cache %s: %s", path, exc)
        return None


def _save_arrays(path: Path, **arrays: np.ndarray) -> None:
    """Write ``arrays`` to ``path`` as ``.npz`` via a temp file + rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def dataset_for(name: str, scale: ExperimentScale) -> SyntheticVideoDataset:
    """Deterministically build the scaled dataset (no caching needed)."""
    classes, train, test = scale.dataset_size(name)
    return load_dataset(
        name,
        seed=scale.seed,
        num_classes=classes,
        train_videos=train,
        test_videos=test,
        height=scale.height,
        width=scale.width,
        num_frames=scale.num_frames,
    )


def _build_victim(dataset: SyntheticVideoDataset, backbone: str, loss: str,
                  scale: ExperimentScale) -> VictimSystem:
    seeds = SeedSequence(scale.seed)
    extractor = create_feature_extractor(
        backbone, feature_dim=scale.feature_dim, width=scale.model_width,
        rng=seeds.rng("victim", dataset.name, backbone),
    )
    loss_fn = create_loss(loss, dataset.num_classes, scale.feature_dim,
                          rng=seeds.rng("victim-loss", dataset.name, loss))
    trainer = MetricTrainer(loss_fn, epochs=scale.victim_epochs,
                            rng=seeds.rng("victim-trainer", dataset.name,
                                          backbone, loss))
    history = trainer.train(extractor, dataset.train)
    extractor.requires_grad_(False)
    engine = RetrievalEngine(extractor, num_nodes=scale.num_nodes)
    engine.index_videos(dataset.train)
    service = RetrievalService.build(engine, m=scale.m)
    return VictimSystem(engine=engine, service=service,
                        gallery_videos=list(dataset.train), history=history)


def victim_for(dataset: SyntheticVideoDataset, backbone: str, loss: str,
               scale: ExperimentScale) -> VictimSystem:
    """Return a trained victim system, loading weights from cache if present."""
    key = scale.cache_key("victim", dataset.name, backbone, loss)
    weights_path = cache_dir() / f"victim-{key}.npz"
    meta_path = cache_dir() / f"victim-{key}.json"
    seeds = SeedSequence(scale.seed)

    state = _load_arrays(weights_path)
    if state is not None:
        logger.info("loading cached victim %s/%s/%s", dataset.name, backbone, loss)
        extractor = create_feature_extractor(
            backbone, feature_dim=scale.feature_dim, width=scale.model_width,
            rng=seeds.rng("victim", dataset.name, backbone),
        )
        gallery_features = state.pop("__gallery_features__")
        extractor.load_state_dict(state)
        extractor.eval()
        extractor.requires_grad_(False)
        engine = RetrievalEngine(extractor, num_nodes=scale.num_nodes)
        engine.gallery.add_batch(
            [v.video_id for v in dataset.train],
            [v.label for v in dataset.train],
            gallery_features,
        )
        service = RetrievalService.build(engine, m=scale.m)
        history = TrainingHistory(json.loads(meta_path.read_text())["losses"]) \
            if meta_path.exists() else TrainingHistory()
        return VictimSystem(engine=engine, service=service,
                            gallery_videos=list(dataset.train), history=history)

    victim = _build_victim(dataset, backbone, loss, scale)
    state = victim.engine.extractor.state_dict()
    features = victim.engine.extractor.embed_videos(dataset.train)
    _save_arrays(weights_path, __gallery_features__=features, **state)
    meta_path.write_text(json.dumps({"losses": victim.history.losses}))
    return victim


def surrogate_for(dataset: SyntheticVideoDataset, victim: VictimSystem,
                  backbone: str, scale: ExperimentScale,
                  rounds: int | None = None,
                  feature_dim: int | None = None):
    """Return a trained surrogate (stolen-data training), cached on disk."""
    rounds = scale.surrogate_rounds if rounds is None else int(rounds)
    feature_dim = scale.surrogate_feature_dim if feature_dim is None else \
        int(feature_dim)
    key = scale.cache_key("surrogate", dataset.name, backbone, rounds,
                          feature_dim, victim.engine.extractor.backbone.__class__.__name__)
    weights_path = cache_dir() / f"surrogate-{key}.npz"
    seeds = SeedSequence(scale.seed)
    surrogate = create_feature_extractor(
        backbone, feature_dim=feature_dim, width=scale.model_width,
        rng=seeds.rng("surrogate", dataset.name, backbone),
    )
    state = _load_arrays(weights_path)
    if state is not None:
        logger.info("loading cached surrogate %s/%s", dataset.name, backbone)
        surrogate.load_state_dict(state)
        surrogate.eval()
        surrogate.requires_grad_(False)
        return surrogate

    stolen = steal_training_set(
        victim.service, dataset.test, victim.video_lookup,
        rounds=rounds, branch=scale.surrogate_branch,
        rng=seeds.rng("stealing", dataset.name, backbone, rounds),
    )
    trainer = SurrogateTrainer(
        epochs=scale.surrogate_epochs,
        rng=seeds.rng("surrogate-trainer", dataset.name, backbone),
    )
    trainer.train(surrogate, stolen)
    surrogate.requires_grad_(False)
    _save_arrays(weights_path, **surrogate.state_dict())
    return surrogate
