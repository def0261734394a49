"""Metric-learning trainer for feature extractors.

Samples class-balanced mini-batches (``P`` classes × ``K`` clips) so that
pair-based losses always see positives, and jointly optimizes the
extractor and any loss-side parameters (ArcFace prototypes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.feature_extractor import FeatureExtractor
from repro.nn import Adam, Tensor
from repro.nn.modules import Module
from repro.obs import counter, gauge, span
from repro.utils.logging import get_logger
from repro.utils.seeding import seeded_rng
from repro.video.types import Video, to_model_input

logger = get_logger("training")


@dataclass
class TrainingHistory:
    """Per-epoch average loss values."""

    losses: list[float] = field(default_factory=list)


class MetricTrainer:
    """Train a :class:`FeatureExtractor` with a metric loss.

    Parameters
    ----------
    loss:
        A callable/module ``loss(embeddings, labels) → scalar Tensor``.
    classes_per_batch / clips_per_class:
        Class-balanced batch composition (``P × K`` sampling).
    """

    def __init__(self, loss, lr: float = 5e-3, epochs: int = 8,
                 classes_per_batch: int = 4, clips_per_class: int = 2,
                 rng=None) -> None:
        self.loss = loss
        self.lr = float(lr)
        self.epochs = int(epochs)
        self.classes_per_batch = int(classes_per_batch)
        self.clips_per_class = int(clips_per_class)
        self.rng = seeded_rng(rng)

    def _batches(self, videos: list[Video]) -> list[list[Video]]:
        """Yield class-balanced batches covering the epoch."""
        by_class: dict[int, list[Video]] = {}
        for video in videos:
            by_class.setdefault(video.label, []).append(video)
        classes = sorted(by_class)
        # One epoch = enough batches to touch each clip roughly once.
        total = len(videos)
        batch_size = self.classes_per_batch * self.clips_per_class
        num_batches = max(1, total // batch_size)
        batches = []
        for _ in range(num_batches):
            chosen = self.rng.choice(
                classes, size=min(self.classes_per_batch, len(classes)),
                replace=False,
            )
            batch: list[Video] = []
            for label in chosen:
                pool = by_class[int(label)]
                picks = self.rng.choice(
                    len(pool), size=min(self.clips_per_class, len(pool)),
                    replace=False,
                )
                batch.extend(pool[p] for p in picks)
            batches.append(batch)
        return batches

    def train(self, extractor: FeatureExtractor,
              videos: list[Video]) -> TrainingHistory:
        """Run the optimization; returns per-epoch loss history."""
        params = list(extractor.parameters())
        if isinstance(self.loss, Module):
            params += list(self.loss.parameters())
        optimizer = Adam(params, lr=self.lr)
        history = TrainingHistory()
        extractor.train()
        for epoch in range(self.epochs):
            epoch_losses = []
            with span("training.epoch", epoch=epoch + 1):
                for batch in self._batches(videos):
                    with span("training.batch"):
                        labels = np.asarray([video.label for video in batch])
                        inputs = Tensor(to_model_input(batch))
                        optimizer.zero_grad()
                        embeddings = extractor(inputs)
                        loss_value = self.loss(embeddings, labels)
                        if not loss_value.requires_grad:
                            continue  # degenerate batch (no positives/negatives)
                        loss_value.backward()
                        optimizer.step()
                        epoch_losses.append(loss_value.item())
                    counter("training.batches").inc()
            counter("training.epochs").inc()
            mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
            gauge("training.epoch_loss").set(mean_loss)
            history.losses.append(mean_loss)
            logger.info("epoch %d/%d loss=%.4f", epoch + 1, self.epochs, mean_loss)
        extractor.eval()
        return history
