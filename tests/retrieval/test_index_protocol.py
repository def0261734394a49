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
from repro.retrieval.protocol import Index, ScanIndex

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
    assert isinstance(index, ScanIndex)


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


def test_scan_is_best_first_and_matches_search(index):
    ids, labels, features = _rows(20)
    index.add_batch(ids, labels, features)
    queries = features[[2, 11]]
    scores, rows = index.scan(queries, k=6)
    assert scores.shape == rows.shape == (2, 6)
    assert np.all(np.diff(scores, axis=1) <= 0)
    assert rows[:, 0].tolist() == [2, 11]
    assert [[ids[row] for row in per_query] for per_query in rows] == \
        [[entry.video_id for entry in result]
         for result in index.search_batch(queries, k=6)]


def test_scan_honours_watermark_and_hidden_mask(index):
    ids, labels, features = _rows(20)
    index.add_batch(ids, labels, features)
    hidden = np.zeros(15, dtype=bool)
    hidden[[3, 4, 5]] = True
    scores, rows = index.scan(features[[3, 17]], k=20, rows=15,
                              hidden=hidden)
    assert scores.shape == (2, 12)  # k clamps to the 12 visible rows
    for per_query in rows:
        returned = [row for row in per_query if row >= 0]
        assert all(row < 15 and not hidden[row] for row in returned)
    # A fully hidden store scans to nothing.
    empty_scores, empty_rows = index.scan(features[:2], k=3, rows=4,
                                          hidden=np.ones(4, dtype=bool))
    assert empty_scores.shape == empty_rows.shape == (2, 0)


def test_scan_of_empty_index(index):
    scores, rows = index.scan(np.zeros((3, 6)), k=4)
    assert scores.shape == rows.shape == (3, 0)


#: Coarse codes and shallow reranks, so a different coder or codebook
#: changes which rows a compressed scan returns.
LOSSY = {
    "feature": FeatureIndex,
    "hamming": lambda: BinaryHashIndex(nbits=16, rerank=8, rng=3),
    "ivfpq": lambda: IVFPQIndex(num_cells=8, nprobe=2, num_subvectors=2,
                                ksub=8, rerank=8, rng=3),
}


@pytest.mark.parametrize("name", sorted(LOSSY))
def test_scan_at_a_watermark_is_a_pure_function_of_its_rows(name):
    """A scan at watermark ``w`` is byte-equal to a scan of a fresh
    same-seed index holding only ``rows[:w]``, whatever reads and
    appends ran before it, and in whatever order."""
    ids, labels, features = _rows(120)
    queries = np.random.default_rng(2).normal(size=(5, 6))
    hidden = np.zeros(120, dtype=bool)
    hidden[[1, 8, 40, 77]] = True
    watermarks = (70, 50, 120, 70, 33)

    def fresh_scan(rows, mask):
        fresh = LOSSY[name]()
        fresh.add_batch(ids[:rows], labels[:rows], features[:rows])
        return fresh.scan(queries, 7, rows, mask)

    interleaved, appended_first = LOSSY[name](), LOSSY[name]()
    appended_first.add_batch(ids, labels, features)
    for start, stop in ((0, 50), (50, 90), (90, 120)):
        interleaved.add_batch(ids[start:stop], labels[start:stop],
                              features[start:stop])
        interleaved.scan(queries, 7, rows=stop - 17)
    for index, order in ((interleaved, watermarks),
                         (appended_first, watermarks[::-1])):
        for rows in order:
            for mask in (None, hidden[:rows]):
                got = index.scan(queries, 7, rows, mask)
                want = fresh_scan(rows, mask)
                assert [array.tobytes() for array in got] == \
                    [array.tobytes() for array in want]
