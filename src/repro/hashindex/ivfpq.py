"""IVF-PQ: coarse cells + product quantization with ADC lookup tables.

The second compressed tier: features are partitioned into coarse
k-means cells (the IVF part, sharing the chunked clustering helpers
with :class:`~repro.retrieval.ann.IVFIndex`) and each row is stored as
``M`` uint8 sub-quantizer codes (the PQ part) — 8–16 bytes per row
instead of 8·d.  A query probes its ``nprobe`` nearest cells, builds a
per-subvector **asymmetric distance** table (exact query subvector vs
every sub-centroid), ranks the probed rows by summed table lookups, and
hands the best ``rerank`` candidates to the exact rescoring stage of
:class:`~repro.hashindex.base.CompressedIndex`.
"""

from __future__ import annotations

import numpy as np

from repro.hashindex.base import CompressedIndex
from repro.hashindex.store import MemmapStore
from repro.hashindex.kmeans import _kmeans, assign_clusters, squared_distances
from repro.retrieval.similarity import SimilarityFn, negative_l2
from repro.utils.seeding import seeded_rng


class ProductQuantizer:
    """Per-subvector k-means codebooks with ADC table construction.

    The feature space is split into ``num_subvectors`` contiguous
    slices (zero-padded up to a multiple when ``d`` does not divide
    evenly — padding is constant across rows, so it never changes
    relative distances); each slice gets its own ``ksub``-centroid
    codebook, and a row is stored as the uint8 index of its nearest
    sub-centroid per slice.
    """

    def __init__(self, num_subvectors: int = 8, ksub: int = 256,
                 iterations: int = 10, rng=None) -> None:
        if num_subvectors < 1:
            raise ValueError("num_subvectors must be positive")
        if not 1 <= ksub <= 256:
            raise ValueError("ksub must be in [1, 256] (codes are uint8)")
        self.num_subvectors = int(num_subvectors)
        self.ksub = int(ksub)
        self.iterations = int(iterations)
        self._rng = seeded_rng(rng)
        self.dim: int | None = None
        self.subdim: int | None = None
        self.codebooks: np.ndarray | None = None  # (M, ksub, subdim)

    @property
    def fitted(self) -> bool:
        return self.codebooks is not None

    def _pad(self, matrix: np.ndarray) -> np.ndarray:
        padded_dim = self.num_subvectors * self.subdim
        if matrix.shape[1] == padded_dim:
            return matrix
        out = np.zeros((matrix.shape[0], padded_dim))
        out[:, : matrix.shape[1]] = matrix
        return out

    def fit(self, matrix: np.ndarray) -> "ProductQuantizer":
        matrix = np.asarray(matrix, dtype=np.float64)
        count, self.dim = matrix.shape
        self.subdim = -(-self.dim // self.num_subvectors)
        matrix = self._pad(matrix)
        ksub = min(self.ksub, count)
        books = np.empty((self.num_subvectors, ksub, self.subdim))
        for m in range(self.num_subvectors):
            sub = matrix[:, m * self.subdim:(m + 1) * self.subdim]
            books[m] = _kmeans(sub, ksub, iterations=self.iterations,
                               rng=self._rng)
        self.codebooks = books
        return self

    def encode(self, matrix: np.ndarray) -> np.ndarray:
        """``(n, d)`` floats → ``(n, M)`` uint8 codes."""
        if not self.fitted:
            raise RuntimeError("quantizer must be fit before encoding")
        matrix = self._pad(np.atleast_2d(np.asarray(matrix,
                                                    dtype=np.float64)))
        codes = np.empty((matrix.shape[0], self.num_subvectors),
                         dtype=np.uint8)
        for m in range(self.num_subvectors):
            sub = matrix[:, m * self.subdim:(m + 1) * self.subdim]
            codes[:, m] = assign_clusters(sub, self.codebooks[m])
        return codes

    def adc_table(self, query: np.ndarray) -> np.ndarray:
        """``(M, ksub)`` squared distances: exact query vs sub-centroids."""
        query = self._pad(np.asarray(query, dtype=np.float64).reshape(1, -1))
        table = np.empty(self.codebooks.shape[:2])
        for m in range(self.num_subvectors):
            sub = query[:, m * self.subdim:(m + 1) * self.subdim]
            table[m] = squared_distances(sub, self.codebooks[m])[0]
        return table

    def adc_distances(self, table: np.ndarray, codes: np.ndarray
                      ) -> np.ndarray:
        """Approximate squared distances for ``(n, M)`` codes via lookup."""
        return table[np.arange(self.num_subvectors)[None, :], codes].sum(axis=1)


class IVFPQIndex(CompressedIndex):
    """Coarse IVF cells + PQ codes + ADC ranking + exact rerank.

    Parameters
    ----------
    num_cells / nprobe:
        The inverted-file partition and the probe width (classic ANN
        speed/recall knob — more probed cells, better recall).
    num_subvectors / ksub:
        PQ geometry: rows cost ``num_subvectors`` bytes each.
    rerank:
        Candidate depth handed to the exact rescoring stage.
    """

    tier = "ivfpq"

    def __init__(self, num_cells: int = 16, nprobe: int = 4,
                 num_subvectors: int = 8, ksub: int = 256,
                 similarity: SimilarityFn = negative_l2, rerank: int = 64,
                 rng=None, *, store: MemmapStore | None = None,
                 memmap: bool = False) -> None:
        if num_cells < 1 or nprobe < 1:
            raise ValueError("num_cells and nprobe must be positive")
        super().__init__(similarity=similarity, rerank=rerank, store=store,
                         memmap=memmap)
        self.num_cells = int(num_cells)
        self.nprobe = int(nprobe)
        self._rng = seeded_rng(rng)
        self.quantizer = ProductQuantizer(num_subvectors=num_subvectors,
                                          ksub=ksub, rng=self._rng)
        self._centroids: np.ndarray | None = None
        self._cells: list[np.ndarray] = []
        self._codes: np.ndarray | None = None  # (n, M) uint8

    # ------------------------------------------------------------------ #
    def _build_compressed(self, matrix: np.ndarray) -> None:
        cells = min(self.num_cells, len(matrix))
        self._centroids = _kmeans(matrix, cells, rng=self._rng)
        assignment = assign_clusters(matrix, self._centroids)
        self._cells = [np.flatnonzero(assignment == c)
                       for c in range(self._centroids.shape[0])]
        self.quantizer.fit(matrix)
        codes = self.quantizer.encode(matrix)
        if self.store is not None:
            codes = self.store.put("pq_codes", codes)
            # Codebooks persist alongside the codes; ADC tables index
            # straight into the read-only mapping.
            self.quantizer.codebooks = self.store.put(
                "pq_codebooks", self.quantizer.codebooks)
        self._codes = codes

    def _candidates(self, queries: np.ndarray, depth: int) -> list[np.ndarray]:
        cell_distances = squared_distances(queries, self._centroids)
        probe_orders = np.argsort(cell_distances, axis=1)[:, : self.nprobe]
        out = []
        for query, probes in zip(queries, probe_orders):
            members = np.concatenate([self._cells[c] for c in probes])
            if members.size == 0:
                # Every probed cell is empty — widen to the full gallery
                # so the rerank contract (≥ k candidates when available)
                # still holds.
                members = np.arange(len(self._ids))
            table = self.quantizer.adc_table(query)
            approx = self.quantizer.adc_distances(
                table, np.asarray(self._codes[members]))
            take = min(int(depth), members.size)
            head = np.argpartition(approx, take - 1)[:take]
            head.sort()  # canonical order before the value sort
            order = head[np.argsort(approx[head], kind="stable")]
            out.append(members[order])
        return out

    def _resident_payload_bytes(self) -> int:
        payload = 0
        if self._codes is not None and self.store is None:
            payload += int(self._codes.nbytes)
        if self._centroids is not None:
            payload += int(self._centroids.nbytes)
        if self.quantizer.fitted and self.store is None:
            payload += int(self.quantizer.codebooks.nbytes)
        return payload


__all__ = ["IVFPQIndex", "ProductQuantizer"]
