"""Tests for the 8-bit query-quantization service option."""

import numpy as np

from repro.retrieval import RetrievalService
from repro.video import Video


def test_quantized_service_returns_lists(tiny_victim, tiny_dataset):
    service = RetrievalService.build(
        tiny_victim.engine, m=5, quantize_queries=True)
    result = service.query(tiny_dataset.test[0])
    assert len(result) == 5


def test_quantization_preserves_video_metadata(tiny_victim, tiny_dataset):
    """Regression: ``_prepare``'s quantize round trip dropped metadata,
    so a defense preprocessor downstream saw an empty dict."""
    seen = []

    def spy(video):
        seen.append(dict(video.metadata))
        return video

    service = RetrievalService.build(
        tiny_victim.engine, m=5, quantize_queries=True, preprocessor=spy)
    video = tiny_dataset.test[0].copy()
    video.metadata["tenant"] = "benign-0"
    service.query(video)
    assert seen == [{"tenant": "benign-0"}]


def test_sub_quantum_perturbations_are_erased(tiny_victim, tiny_dataset):
    """Perturbations below half an 8-bit step cannot affect the service."""
    service = RetrievalService.build(
        tiny_victim.engine, m=6, quantize_queries=True)
    video = tiny_dataset.test[0]
    # Snap the base video onto the 8-bit lattice first so that a tiny
    # extra perturbation is guaranteed to round back to the same lattice.
    lattice = Video(np.round(video.pixels * 255.0) / 255.0, video.label,
                    video.video_id)
    tiny_phi = np.full(video.pixels.shape, 0.4 / 255.0)
    perturbed = lattice.perturbed(tiny_phi)
    assert service.query(lattice).ids == service.query(perturbed).ids


def test_tau_scale_perturbations_survive_quantization(tiny_victim,
                                                      tiny_dataset, rng):
    """τ=30/255 perturbations are far above the quantum and persist."""
    service = RetrievalService.build(
        tiny_victim.engine, m=6, quantize_queries=True)
    video = tiny_dataset.test[0]
    phi = rng.choice([-30.0 / 255.0, 30.0 / 255.0], size=video.pixels.shape)
    perturbed = video.perturbed(phi)
    # The embedded (quantized) video differs from the clean one.
    assert service.query(video).ids != service.query(perturbed).ids or \
        np.abs(phi).max() == 0.0
