"""Parametrized ``Index``-protocol conformance suite.

Every searchable container — the exact index and both compressed
tiers — must satisfy the same structural protocol and
the same edge-case semantics: empty-index searches, ``add_batch`` zip
semantics, scalar/batched search parity, ``labels_of`` length, and
``k > n`` clamping.  New index implementations get coverage by adding
one factory here.
"""

import numpy as np
import pytest

from repro.hashindex import BinaryHashIndex, IVFPQIndex
from repro.retrieval import FeatureIndex
from repro.retrieval.protocol import Index

FACTORIES = {
    "feature": lambda: FeatureIndex(),
    "hamming": lambda: BinaryHashIndex(nbits=64, rerank=16, rng=3),
    "ivfpq": lambda: IVFPQIndex(num_cells=4, nprobe=4, num_subvectors=4,
                                rerank=16, rng=3),
}


@pytest.fixture(params=sorted(FACTORIES), ids=sorted(FACTORIES))
def index(request):
    return FACTORIES[request.param]()


def _rows(count: int, dim: int = 6, seed: int = 0):
    rng = np.random.default_rng(seed)
    ids = [f"v{i}" for i in range(count)]
    labels = [i % 3 for i in range(count)]
    return ids, labels, rng.normal(size=(count, dim))


def test_satisfies_protocol(index):
    assert isinstance(index, Index)


def test_empty_index_searches(index):
    assert len(index) == 0
    assert index.search(np.zeros(6), k=3) == []
    assert index.search_batch(np.zeros((4, 6)), k=3) == [[], [], [], []]


def test_add_then_len_and_labels(index):
    ids, labels, features = _rows(10)
    index.add_batch(ids, labels, features)
    index.add("extra", 7, np.zeros(6))
    assert len(index) == 11
    assert len(index.labels_of()) == 11
    assert index.labels_of()[-1] == 7


def test_add_batch_zip_semantics(index):
    ids, labels, features = _rows(8)
    # Extra entries in any argument are ignored (row count = min length).
    index.add_batch(ids, labels[:5], features)
    assert len(index) == 5
    index.add_batch([], [], np.zeros((0, 6)))
    assert len(index) == 5


def test_search_batch_matches_sequential_search(index):
    ids, labels, features = _rows(30)
    index.add_batch(ids, labels, features)
    queries = np.random.default_rng(1).normal(size=(7, 6))
    batched = index.search_batch(queries, k=5)
    sequential = [index.search(query, k=5) for query in queries]
    assert batched == sequential


def test_k_larger_than_n_is_clamped(index):
    ids, labels, features = _rows(4)
    index.add_batch(ids, labels, features)
    result = index.search(features[0], k=50)
    assert len(result) == 4
    for per_query in index.search_batch(features[:2], k=50):
        assert len(per_query) == 4


def test_results_are_sorted_best_first(index):
    ids, labels, features = _rows(25)
    index.add_batch(ids, labels, features)
    result = index.search(features[3], k=10)
    scores = [entry.score for entry in result]
    assert scores == sorted(scores, reverse=True)
    # The query coincides with a gallery row, so that row must lead.
    assert result[0].video_id == "v3"


def test_search_does_not_mutate_labels(index):
    ids, labels, features = _rows(12)
    index.add_batch(ids, labels, features)
    before = index.labels_of()
    index.search(features[0], k=3)
    index.search_batch(features[:4], k=3)
    assert index.labels_of() == before
