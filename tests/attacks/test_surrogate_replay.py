"""Surrogate gradients run through grad-mode trace replay.

SparseTransfer (DUO Alg. 1) and TIMI differentiate the surrogate once
per step through ``FeatureExtractor.embed_tensor``, which replays the
extractor's compiled module.  Their outputs must be byte-identical to
the eager forward that ``repro.qa.eager_forwards()`` forces.
"""

import numpy as np
import pytest

from repro.attacks.duo import SparseTransfer
from repro.attacks.timi import timi_transfer
from repro.nn import Tensor
from repro.obs import get_registry
from repro.qa import eager_forwards
from repro.qa.world import tiny_extractor, tiny_videos


@pytest.fixture(scope="module")
def pair():
    return tuple(tiny_videos(907, 2))


def _surrogate():
    return tiny_extractor(313, backbone="c3d")


def _transfer(original, target):
    transfer = SparseTransfer(_surrogate(), k=300, n=3, outer_iters=1,
                              theta_steps=4, frame_steps=2, rng=5)
    return transfer.run(original, target)


def _jit_counters() -> dict:
    counters = get_registry().snapshot()["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("nn.jit.")}


def _delta(before: dict, after: dict) -> dict:
    return {name: value - before.get(name, 0.0)
            for name, value in after.items()
            if value != before.get(name, 0.0)}


def test_sparse_transfer_priors_match_eager(pair):
    replayed = _transfer(*pair)
    with eager_forwards():
        eager = _transfer(*pair)
    for name in ("theta", "pixel_mask", "frame_mask"):
        got, expected = getattr(replayed, name), getattr(eager, name)
        assert got.tobytes() == expected.tobytes(), name


def test_timi_perturbation_matches_eager(pair):
    replayed = timi_transfer(_surrogate(), *pair, tau=8 / 255,
                             iterations=3)
    with eager_forwards():
        eager = timi_transfer(_surrogate(), *pair, tau=8 / 255,
                              iterations=3)
    assert replayed.perturbation.tobytes() == eager.perturbation.tobytes()


def test_transfer_replays_without_fallbacks(pair):
    before = _jit_counters()
    _transfer(*pair)
    ticked = _delta(before, _jit_counters())
    # 4 θ-steps, 1 utility pass, 2 frame steps and 4 final θ-steps; the
    # first grad pass and the target embed each trace once.
    assert ticked.get("nn.jit.replays", 0) >= 10
    assert not [name for name in ticked if name.startswith("nn.jit.fallbacks")]


def test_eager_forwards_keeps_the_gradient_path_eager(pair):
    before = _jit_counters()
    with eager_forwards():
        _transfer(*pair)
    assert "nn.jit.replays" not in _delta(before, _jit_counters())


def test_two_forwards_before_backward_raise_stale(pair):
    surrogate = _surrogate()
    clips = [Tensor(video.pixels.transpose(3, 0, 1, 2)[None],
                    requires_grad=True) for video in pair]
    first = surrogate.embed_tensor(clips[0])
    first.sum().backward()  # traced: first call per signature
    second = surrogate.embed_tensor(clips[0])
    third = surrogate.embed_tensor(clips[1])
    with pytest.raises(RuntimeError, match="stale replay"):
        second.sum().backward()
    third.sum().backward()
    assert np.isfinite(clips[1].grad).all()
