"""Tests for the chunked k-means helpers behind the IVF-PQ tier."""

import numpy as np
import pytest

from repro.hashindex.kmeans import (
    _kmeans,
    assign_clusters,
    squared_distances,
)


@pytest.fixture
def clustered_features(rng):
    """Three well-separated feature clusters with ids/labels."""
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    features, ids, labels = [], [], []
    for c, center in enumerate(centers):
        for i in range(10):
            features.append(center + rng.normal(scale=0.3, size=2))
            ids.append(f"c{c}-{i}")
            labels.append(c)
    return np.asarray(features), ids, labels


class TestKMeans:
    def test_centroid_count(self, rng):
        points = rng.normal(size=(30, 4))
        centroids = _kmeans(points, 5, rng=rng)
        assert centroids.shape == (5, 4)

    def test_recovers_separated_clusters(self, clustered_features, rng):
        features, _, _ = clustered_features
        centroids = _kmeans(features, 3, rng=rng)
        # Each true centre should have one centroid nearby.
        for center in ([0, 0], [10, 0], [0, 10]):
            distances = np.linalg.norm(centroids - np.asarray(center), axis=1)
            assert distances.min() < 1.5


def _broadcast_kmeans(points, num_clusters, iterations=15, rng=None):
    """The seed implementation: (n, k, d) broadcast distance cube."""
    from repro.utils.seeding import seeded_rng

    rng = seeded_rng(rng)
    chosen = rng.choice(points.shape[0],
                        size=min(num_clusters, points.shape[0]),
                        replace=False)
    centroids = points[chosen].copy()
    for _ in range(iterations):
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2
                     ).sum(axis=2)
        assignment = distances.argmin(axis=1)
        for cluster in range(centroids.shape[0]):
            members = points[assignment == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return centroids


class TestChunkedDistances:
    def test_squared_distances_match_broadcast(self, rng):
        points = rng.normal(size=(40, 6))
        centroids = rng.normal(size=(5, 6))
        naive = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(squared_distances(points, centroids),
                                   naive, rtol=1e-10, atol=1e-10)

    def test_assign_clusters_chunking_invariant(self, rng):
        points = rng.normal(size=(100, 5))
        centroids = rng.normal(size=(7, 5))
        full = assign_clusters(points, centroids)
        tiny_chunks = assign_clusters(points, centroids, chunk_elems=8)
        np.testing.assert_array_equal(full, tiny_chunks)

    def test_kmeans_bit_identical_to_broadcast_seed(self, clustered_features):
        """The expansion form must reproduce the seed clustering exactly
        on the seeded test galleries (same rng draws, same assignments,
        therefore the same per-cluster means)."""
        features, _, _ = clustered_features
        ours = _kmeans(features, 3, rng=7)
        seed_impl = _broadcast_kmeans(features, 3, rng=7)
        np.testing.assert_array_equal(ours, seed_impl)

    def test_kmeans_bit_identical_on_random_gallery(self, rng):
        points = rng.normal(size=(80, 6))
        np.testing.assert_array_equal(
            _kmeans(points, 6, rng=13), _broadcast_kmeans(points, 6, rng=13))
