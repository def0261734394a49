"""The differential-oracle driver: one parametrized test per pair.

Registering an :class:`~repro.qa.oracle.OraclePair` in
``repro.qa.pairs`` is all it takes to get a test here — the driver
enumerates the registry at collection time.
"""

import pytest

from repro.qa.oracle import all_pairs, check_pair
from repro.qa.pairs import _REFERENCE_ATTACKS

PAIRS = all_pairs()

#: Contracts the issue requires the registry to cover.
REQUIRED = {
    "conv2d.einsum_vs_gemm",
    "conv3d.einsum_vs_gemm",
    "feature_index.search_vs_batch",
    "sharded_gallery.search_vs_batch",
    "engine.cached_vs_uncached",
    "gallery.replicated_vs_single",
    "sparse_query.sequential_vs_speculative",
    "serving.batched_vs_sequential",
    "serving.pooled_vs_single",
    "serving.mutating_timeline",
    "hashindex.compressed_vs_exact",
}


def test_registry_covers_required_contracts():
    assert REQUIRED <= set(PAIRS)
    assert len(PAIRS) >= 5


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_pair_agrees(name, clear_conv_plans):
    pair = PAIRS[name]
    assert check_pair(pair) == pair.cases


@pytest.mark.parametrize("name", _REFERENCE_ATTACKS)
def test_composed_vs_legacy_covers_every_attack(name):
    """The seeded draw may skip an attack; pin one case of each."""
    PAIRS["attacks.composed_vs_legacy"].check_case(
        {"name": name, "seed": 7, "iters": 3})
