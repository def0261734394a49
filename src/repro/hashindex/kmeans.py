"""Chunked k-means clustering shared by the IVF-PQ tier.

:func:`assign_clusters` computes nearest centroids through the chunked
``‖a‖² − 2a·b + ‖b‖²`` expansion, so building coarse cells or PQ
codebooks over 10^6 rows never materializes an ``(n, k, d)`` broadcast
intermediate.  :class:`~repro.hashindex.ivfpq.IVFPQIndex` uses these
helpers for its coarse cells, its codebooks and its query-time cell
probe.
"""

from __future__ import annotations

import numpy as np

from repro.utils.seeding import seeded_rng

#: Element budget for one ``(chunk, k)`` distance block (float64); the
#: GEMM in the expansion never allocates more than this per chunk.
_ASSIGN_CHUNK_ELEMS = 1 << 18


def squared_distances(points: np.ndarray, centroids: np.ndarray
                      ) -> np.ndarray:
    """``(n, k)`` squared ℓ2 distances via ``‖a‖² − 2a·b + ‖b‖²``.

    One GEMM plus two norm vectors — O(n·k·d) flops but only O(n·k)
    memory, unlike the ``(n, k, d)`` broadcast cube the naive form
    allocates.  Clamped at zero: the expansion can dip slightly negative
    for near-identical pairs.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    point_norms = (points * points).sum(axis=1)[:, None]
    centroid_norms = (centroids * centroids).sum(axis=1)[None, :]
    distances = point_norms - 2.0 * (points @ centroids.T) + centroid_norms
    np.maximum(distances, 0.0, out=distances)
    return distances


def assign_clusters(points: np.ndarray, centroids: np.ndarray,
                    chunk_elems: int = _ASSIGN_CHUNK_ELEMS) -> np.ndarray:
    """Nearest-centroid index per point, chunked over rows.

    Processes ``points`` in blocks so the live ``(chunk, k)`` distance
    matrix stays under ``chunk_elems`` float64 elements no matter how
    large the gallery is.
    """
    points = np.asarray(points, dtype=np.float64)
    count = points.shape[0]
    num_centroids = centroids.shape[0]
    assignment = np.empty(count, dtype=np.int64)
    chunk = max(1, int(chunk_elems) // max(1, num_centroids))
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        block = squared_distances(points[start:stop], centroids)
        assignment[start:stop] = block.argmin(axis=1)
    return assignment


def _kmeans(points: np.ndarray, num_clusters: int, iterations: int = 15,
            rng=None) -> np.ndarray:
    """Plain Lloyd's k-means; returns the ``(num_clusters, d)`` centroids.

    The assignment step runs through :func:`assign_clusters` (chunked
    expansion) instead of the ``(n, k, d)`` broadcast the seed used, so
    clustering a million rows stays memory-bounded; centroid updates are
    the same per-cluster means, so results match the seeded galleries.
    """
    rng = seeded_rng(rng)
    count = points.shape[0]
    chosen = rng.choice(count, size=min(num_clusters, count), replace=False)
    centroids = points[chosen].copy()
    for _ in range(iterations):
        assignment = assign_clusters(points, centroids)
        for cluster in range(centroids.shape[0]):
            members = points[assignment == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return centroids


__all__ = ["assign_clusters", "squared_distances"]
