"""Binary Hamming-code index with exact rerank.

The gallery is stored as ``nbits``-bit sign codes packed into ``uint64``
words (16 bytes per row at 128 bits, vs 8·d bytes of float features); a
search XOR+popcounts the whole code table, over-fetches the ``rerank``
nearest codes, and rescores exactly those rows against the float
features.  This is the compressed tier production deep-hash retrieval
runs on (HashNet-style), and the surface QAIR/SAAT-style hash attacks
target.
"""

from __future__ import annotations

import numpy as np

from repro.hashindex.base import CompressedIndex
from repro.hashindex.codes import create_coder, hamming_topk
from repro.hashindex.store import MemmapStore
from repro.retrieval.similarity import SimilarityFn, negative_l2
from repro.utils.seeding import seeded_rng


class BinaryHashIndex(CompressedIndex):
    """Packed binary codes + popcount Hamming top-k + exact rerank.

    Parameters
    ----------
    nbits:
        Code length; packed into ``ceil(nbits / 64)`` uint64 words.
    coder:
        ``"lsh"`` (sign of random projection) or ``"itq"`` (PCA + ITQ
        rotation, better recall at equal bits).
    rerank:
        Candidate depth the Hamming scan over-fetches for exact rescoring.
    """

    tier = "hamming"

    def __init__(self, nbits: int = 128, coder: str = "lsh",
                 similarity: SimilarityFn = negative_l2, rerank: int = 64,
                 rng=None, *, store: MemmapStore | None = None,
                 memmap: bool = False) -> None:
        super().__init__(similarity=similarity, rerank=rerank, store=store,
                         memmap=memmap)
        self.nbits = int(nbits)
        self.coder_name = str(coder)
        self._rng = seeded_rng(rng)
        self._coder = None
        self._codes: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def _build_compressed(self, matrix: np.ndarray) -> None:
        self._coder = create_coder(self.coder_name, self.nbits,
                                   rng=self._rng)
        self._coder.fit(matrix)
        codes = self._coder.encode(matrix)
        if self.store is not None:
            codes = self.store.put("hamming_codes", codes)
        self._codes = codes

    def _candidates(self, queries: np.ndarray, depth: int) -> list[np.ndarray]:
        query_codes = self._coder.encode(queries)
        indexes, _ = hamming_topk(query_codes, self._codes, depth)
        return list(indexes)

    def _resident_payload_bytes(self) -> int:
        payload = 0
        if self._codes is not None and self.store is None:
            payload += int(self._codes.nbytes)
        if self._coder is not None and self._coder.fitted:
            payload += int(self._coder._projection.nbytes)
            payload += int(self._coder._mean.nbytes)
        return payload


__all__ = ["BinaryHashIndex"]
